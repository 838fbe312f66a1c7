(** Process identifiers.

    The system of the paper is a finite set of processes
    [Omega = {p_1, ..., p_n}] with [n > 3].  A [Pid.t] is the index [i] of
    process [p_i]; indices are 1-based, matching the paper's notation.  The
    ordering of identifiers is meaningful: the Partially Perfect class
    [P<] (Section 6.2) and the rank-based consensus algorithm rely on it. *)

type t = private int

val of_int : int -> t
(** [of_int i] is the process [p_i].  Raises [Invalid_argument] if [i < 1]. *)

val to_int : t -> int

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [p3]. *)

val to_string : t -> string

val all : n:int -> t list
(** [all ~n] is [[p1; ...; pn]].  Raises [Invalid_argument] if [n < 1]. *)

val lower_than : t -> t list
(** [lower_than p] is every process with a strictly smaller index. *)

module Set : sig
  include Set.S with type elt = t

  val pp : Format.formatter -> t -> unit

  val of_ints : int list -> t
end

module Map : Map.S with type key = t

val universe : n:int -> Set.t
(** [universe ~n] is the set [Omega] of all [n] processes. *)

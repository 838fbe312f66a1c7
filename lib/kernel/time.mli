(** Discrete global time.

    The paper assumes a discrete global clock whose range [Phi] is the set of
    natural numbers.  The clock is a device of the model (and of this
    simulator); it is never accessible to the processes themselves. *)

type t = private int

val zero : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative values. *)

val to_int : t -> int

val succ : t -> t

val add : t -> int -> t
(** [add t d] is [t + d].  Raises [Invalid_argument] if the result would be
    negative. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val min : t -> t -> t

val pp : Format.formatter -> t -> unit

val range : t -> t -> t list
(** [range a b] is [[a; a+1; ...; b]] ([[]] if [b < a]). *)

(** Failure patterns and environments (paper, Section 2.1).

    A failure pattern is a function [F] from time to sets of processes, where
    [F t] is the set of processes that have crashed through time [t].
    Failures are permanent (crash-stop, no recovery), so [F] is monotone and
    is represented compactly as an optional crash time per process.

    The paper's environment is the one containing {e all} failure patterns —
    the number of faulty processes is not bounded.  [Pattern.Family] below
    provides generators covering that environment, including its extreme
    corners (all-but-one crash, cascades, simultaneous crashes). *)

open Rlfd_kernel

type t

val make : n:int -> (Pid.t * Time.t) list -> t
(** [make ~n crashes] is the pattern over [n] processes in which each listed
    process crashes at the paired time and every other process is correct.
    Raises [Invalid_argument] if [n < 1], if a process index exceeds [n], or
    if a process is listed twice. *)

val failure_free : n:int -> t

val n : t -> int

val processes : t -> Pid.t list

val crash_time : t -> Pid.t -> Time.t option
(** [None] for correct processes. *)

val crashed_by : t -> Time.t -> Pid.Set.t
(** [F(t)]: the processes that have crashed through time [t]. *)

val alive_at : t -> Time.t -> Pid.Set.t

val is_crashed : t -> Pid.t -> Time.t -> bool

val is_alive : t -> Pid.t -> Time.t -> bool

val correct : t -> Pid.Set.t
(** [correct F] — the processes that never crash in [F]. *)

val faulty : t -> Pid.Set.t

val num_faulty : t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Prefixes}

    A prefix [F[t]] is the restriction of a pattern to times [<= t]; it is
    both the output range of the Scribe detector (Section 3.2.1) and the
    object realism is defined on (Section 3.1). *)

type prefix

val prefix : t -> Time.t -> prefix
(** [prefix f t] is [F\[t\]], the list of crash events with time [<= t]. *)

val prefix_equal : prefix -> prefix -> bool

val prefix_events : prefix -> (Pid.t * Time.t) list
(** Crash events in the prefix, sorted by (time, pid). *)

val prefix_crashed : prefix -> Pid.Set.t

val pp_prefix : Format.formatter -> prefix -> unit

val divergence_time : t -> t -> Time.t option
(** [divergence_time f g] is the earliest [t] with [F(t) <> G(t)], or [None]
    when the patterns are identical.  [f] and [g] agree up to (and including)
    any time strictly before the divergence time.  Raises [Invalid_argument]
    if the patterns have different sizes. *)

val agree_through : t -> t -> Time.t -> bool
(** [agree_through f g t] iff [F(t1) = G(t1)] for all [t1 <= t]. *)

val crash : t -> Pid.t -> Time.t -> t
(** [crash f p t] adds (or moves) the crash of [p] to time [t]. *)

val truncate_after : t -> Time.t -> t
(** [truncate_after f t] removes every crash occurring strictly after [t]:
    the minimal extension of [F\[t\]] in which no further process fails. *)

val crash_all_except : t -> keep:Pid.t -> at:Time.t -> t
(** The adversarial extension used throughout the paper's proofs: every
    process other than [keep] that is still alive at [at] crashes at [at];
    crashes before [at] are preserved.  [keep]'s own crash, if any, is
    removed, making it correct. *)

(** {1 Pattern families}

    Named generators spanning the unbounded-failure environment.  All
    randomness is taken from the supplied {!Rlfd_kernel.Rng}.  At any
    [n >= 1] every family leaves at least one process correct and crashes
    no process after [horizon]; at [n = 1] that makes every pattern
    failure-free. *)

module Family : sig
  type pattern = t

  type t = {
    name : string;
    generate : n:int -> horizon:Time.t -> Rng.t -> pattern;
  }

  val failure_free : t

  val single_crash : t
  (** One uniformly chosen process crashes at a uniform time (none at
      [n = 1]). *)

  val minority_crashes : t
  (** Fewer than [n/2] crashes — the classical [◊S]-friendly environment. *)

  val majority_crashes : t
  (** At least [n/2] crashes — where majority-based algorithms block. *)

  val all_but_one : t
  (** Every process but one crashes, at staggered times: the extreme pattern
      the paper's lower-bound proofs hinge on. *)

  val simultaneous : t
  (** A random non-empty subset (possibly all-but-one) crashes at one common
      instant (none at [n = 1]). *)

  val cascade : t
  (** Between 1 and [n - 1] crashes at regular intervals, lowest index
      first (none at [n = 1]).  When [horizon] has fewer ticks than there
      are crashes, the late ones share the horizon's tick. *)

  val uniform : t
  (** Each process independently crashes with probability 1/2 at a uniform
      time — samples the whole environment. *)

  val all : t list

  val generate : t -> n:int -> horizon:Time.t -> Rng.t -> pattern
end

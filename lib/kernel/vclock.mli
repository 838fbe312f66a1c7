(** Vector clocks over process identifiers.

    The run executor stamps every step with a vector clock so that the causal
    chain of any event — in particular of a decision event — can be recovered
    after the fact.  Lemma 4.1 of the paper ("every consensus algorithm using
    a realistic failure detector is total") is checked against these stamps:
    the causal chain of a decision at time [t] must contain a message from
    every process that has not crashed by [t].

    A clock is one immutable block of [n] counters at most: a step's
    [tick] allocates one block, and [merge] allocates nothing when one
    argument already dominates the other (it returns that argument). *)

type t

val empty : t

val singleton : Pid.t -> t
(** One event observed at the given process. *)

val tick : t -> Pid.t -> t
(** Increment the component of the given process. *)

val get : t -> Pid.t -> int

val merge : t -> t -> t
(** Component-wise maximum; physically [a] (or [b]) when it already
    dominates the other. *)

val leq : t -> t -> bool
(** Pointwise less-or-equal: causal precedence (or equality). *)

val equal : t -> t -> bool

val concurrent : t -> t -> bool

val support : t -> Pid.Set.t
(** Processes with a non-zero component: every process that contributed an
    event to the causal past summarised by this clock. *)

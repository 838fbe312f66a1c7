(** The leader oracle [Ω].

    [Ω] outputs a single process per query and guarantees that eventually
    all correct processes agree on one correct leader.  It is the weakest
    detector for consensus with a majority of correct processes and is
    included here to round out the hierarchy the paper collapses.  The
    canonical member is realistic: the leader at [t] is the smallest-index
    process alive at [t]. *)

open Rlfd_kernel

val canonical : Pid.t Detector.t
(** Raises [Failure] if queried on a pattern/time where every process has
    crashed (such runs are outside the model: a correct process exists in
    every pattern the generators produce). *)

val as_suspicions : n:int -> Detector.suspicions Detector.t
(** [Ω] recast in the suspicion range: suspect everyone but the leader.
    Eventually-strong-like behaviour, useful for plugging [Ω] into
    suspicion-based algorithms. *)

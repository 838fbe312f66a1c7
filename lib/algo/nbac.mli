(** Non-blocking atomic commitment with a Perfect failure detector.

    The problem behind the paper's Section 6.2 lineage (Hadzilacos 1990;
    Guerraoui 1995, the paper's [8] and [10]): every process votes [Yes] or
    [No] on a transaction; the processes must uniformly decide [Commit] or
    [Abort], where [Commit] requires a unanimous [Yes] and [Abort] requires
    an excuse — a [No] vote or a crash.  With unbounded failures this needs
    Perfect-grade information for the same reason uniform consensus does,
    which is why it slots naturally into this reproduction.

    The algorithm: flood votes; wait for each process's vote or its
    suspicion; propose [Commit] iff all [n] votes arrived and all are [Yes],
    else [Abort]; feed the proposal to the embedded {!Ct_strong} consensus.
    Strong accuracy makes the [Abort] excuse sound, strong completeness
    unblocks the waits. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type vote = Yes | No

val pp_vote : Format.formatter -> vote -> unit

type outcome = Commit | Abort

val pp_outcome : Format.formatter -> outcome -> unit

type msg

type state

val decision : state -> outcome option

val automaton :
  votes:(Pid.t -> vote) -> (state, msg, Detector.suspicions, outcome) Model.t

val check :
  votes:(Pid.t -> vote) -> ('s, outcome) Runner.result -> (string * Classes.result) list
(** Termination, uniform agreement, commit-validity ([Commit] ⇒ unanimous
    [Yes]) and abort-validity ([Abort] ⇒ a [No] vote or a crash in the
    pattern).  Abort-validity is meaningful for accurate (Perfect-grade)
    detectors; noisy detectors can abort spuriously, and the checker will
    say so. *)

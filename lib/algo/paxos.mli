(** Leader-driven consensus with the [Ω] oracle and majority quorums
    (single-decree, Paxos/synod style).

    Completes the repository's hierarchy picture around the paper: [Ω] is
    the weakest detector for consensus with a {e majority} of correct
    processes, and this is the algorithm family that uses it.  Ballot
    quorums keep it safe under any schedule and any detector output; the
    eventual leader granted by [Ω] gives liveness.  Like the [◊S]
    rotating coordinator, it {e blocks} once half the processes are gone —
    the environment gap the paper's result lives in.

    A process that believes itself leader (its [Ω] module outputs itself)
    runs prepare/accept rounds with ballots [k·n + id]; stalled attempts
    are retried with a higher ballot after a patience counted in the
    leader's own steps (processes have no clock). *)

open Rlfd_kernel
open Rlfd_sim

type 'v msg

type 'v state

val ballot_of : 'v state -> int
(** The highest ballot this process has led (diagnostics). *)

val automaton : proposals:(Pid.t -> 'v) -> ('v state, 'v msg, Pid.t, 'v) Model.t
(** The detector is an [Ω] oracle: each query returns the current leader
    estimate (e.g. {!Rlfd_fd.Omega.canonical}). *)

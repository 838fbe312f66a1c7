(** Consensus with an Eventually Strong failure detector and a majority of
    correct processes (Chandra–Toueg 1996, Fig. 6: the rotating-coordinator
    algorithm).

    Background for the paper's Section 1.2: [◊S] solves consensus only when
    a majority of processes is correct.  The algorithm proceeds in rounds;
    the round's coordinator gathers a majority of timestamped estimates,
    proposes the freshest, and decides after a majority of acks, propagating
    the decision by reliable broadcast.  Suspicion of the coordinator lets
    participants move to the next round (nack).

    In runs where at least [n/2] processes crash, the majority waits block
    forever: the run reaches its horizon with no decision — never with a
    safety violation.  This is experiment EXP-9's separation between the
    bounded-failure world where [◊S] suffices and the paper's unbounded
    environment where it does not. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type 'v msg

type 'v state

val round_of : 'v state -> int
(** Current round number (diagnostics: grows forever in blocked runs). *)

val majority : n:int -> int
(** The quorum size [n/2 + 1]. *)

val automaton :
  proposals:(Pid.t -> 'v) -> ('v state, 'v msg, Detector.suspicions, 'v) Model.t

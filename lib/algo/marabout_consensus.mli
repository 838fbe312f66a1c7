(** Consensus with the Marabout failure detector (paper, Section 6.1).

    With an oracle for the {e future} — [M] outputs the exact faulty set —
    consensus in the unbounded-failure environment is trivial: every process
    selects the smallest-index unsuspected (hence correct) process; that
    process decides its own value and sends it to all; everyone else waits
    for it.  The algorithm is deliberately {e not total} (only one process
    is consulted), which is consistent with Lemma 4.1 because [M] is not
    realistic.

    Run instead with a realistic detector (where "unsuspected" means "alive
    so far", not "correct"), the algorithm is {e unsound}: if the elected
    process decides and crashes before its value spreads, the survivors
    elect a new leader and may decide differently.  {!automaton} is used in
    tests and benches for both demonstrations. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type 'v msg

type 'v state

val init : self:Pid.t -> proposal:'v -> 'v state

val handle :
  n:int ->
  self:Pid.t ->
  'v state ->
  'v msg Model.envelope option ->
  Detector.suspicions ->
  ('v state, 'v msg, 'v) Model.effects

val automaton :
  proposals:(Pid.t -> 'v) -> ('v state, 'v msg, Detector.suspicions, 'v) Model.t

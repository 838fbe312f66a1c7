(** Correct-restricted (non-uniform) consensus with a Partially Perfect
    failure detector [P<] (paper, Section 6.2, after Guerraoui 1995).

    [P<] tells [p_j] — eventually, and never wrongly — about crashes of
    lower-index processes only.  The algorithm exploits the index order:

    - [p_1] decides its own value immediately and broadcasts it;
    - [p_j] waits, for every [i < j], until it has received [p_i]'s
      decision or suspects [p_i]; it then adopts the decision of the
      {e largest} index received (its own value if none) and broadcasts.

    Adopting the largest index is what makes correct processes agree: the
    decision of any process above the largest correct index [c'] below it
    coincides, by induction, with [p_{c'}]'s decision.  {e Uniform}
    agreement fails — [p_1] can decide alone and crash — which is the
    paper's witness that uniform consensus is strictly harder than
    consensus, and why [P<] (strictly weaker than [P]) cannot be the
    weakest class for the uniform problem.

    The algorithm is deliberately {e not total} ([p_1] consults nobody);
    Lemma 4.1 is not contradicted because the algorithm does not solve
    {e uniform} consensus. *)

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

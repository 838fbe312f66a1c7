(** Consensus with a Strong failure detector, tolerating any number of
    crashes (Chandra–Toueg 1996, Fig. 5 style; the algorithm Proposition 4.3
    of the paper invokes for sufficiency).

    The algorithm runs [n-1] asynchronous rounds in which processes flood
    newly learned proposals, waiting in each round for a message from every
    process they do not suspect, followed by a final vector exchange whose
    pointwise intersection forces agreement; each process then decides the
    first non-bottom component.  Correctness needs strong completeness (the
    waits unblock) and weak accuracy (some correct process is heard by
    everyone in every round).

    Run with a {e realistic} detector (which, per Section 6.3 of the paper,
    has strong accuracy) the algorithm is {e total}: no process decides
    without a message from every process alive at decision time — the
    property Lemma 4.1 predicts and {!Totality.check} verifies.  Run with
    the non-realistic {!Rlfd_fd.Strong.clairvoyant} it still solves
    consensus but is {e not} total, exhibiting why realism matters.

    The state, message type and transition function are exposed so that
    higher-level protocols (terminating reliable broadcast, atomic
    broadcast, the Section 4.3 reduction) can embed consensus instances. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type 'v vector = 'v option Pid.Map.t
(** Known proposals, indexed by proposer. *)

type 'v msg =
  | Round of { round : int; delta : 'v vector }
  | Final of { view : 'v vector }

type 'v state

val init : n:int -> self:Pid.t -> proposal:'v -> 'v state

val decision : 'v state -> 'v option
(** The value decided, once the state has reached its decision. *)

val handle :
  n:int ->
  self:Pid.t ->
  'v state ->
  'v msg Model.envelope option ->
  Detector.suspicions ->
  ('v state, 'v msg, 'v) Model.effects
(** One step: absorb the (optional) message, make all enabled progress,
    emit sends and — exactly once — the decision. *)

val automaton :
  proposals:(Pid.t -> 'v) -> ('v state, 'v msg, Detector.suspicions, 'v) Model.t
(** The algorithm as a runnable automaton; the output is the decided
    value. *)

val renamer : ('v state, 'v msg, 'v) Symmetry.renamer
(** How a pid permutation acts on this algorithm's state and messages —
    the witness {!Rlfd_sim.Explore}'s symmetry reduction needs.  Every
    embedded pid (vector components, message-log senders) moves with the
    permutation and every embedded value through the induced proposal
    renaming.  The algorithm itself is pid-uniform: rounds wait on {e all}
    unsuspected processes (no ranks, no coordinators), and the decided
    component is forced to be unique by the final intersection — this is
    what makes it, alone among the portfolio algorithms, eligible for
    symmetry.  {!Rlfd_sim.Explore.cross_check} validates the claim
    per-scope. *)

val symmetry :
  n:int ->
  proposals:(Pid.t -> 'v) ->
  ('v state, 'v msg, Detector.suspicions, 'v) Explore.symmetry_spec
(** The explorer's symmetry spec for [n] processes with these proposals:
    {!renamer}, {!Symmetry.value_map_of_proposals} and
    {!Symmetry.rename_set}. *)

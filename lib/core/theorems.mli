(** The paper's results, one executable check per claim.

    Every function runs the relevant construction over a deterministic,
    seeded workload and reports an {!outcome}: what the paper claims, what
    was observed, and whether the observation matches.  These are the
    entry points a reader of the paper should start from; the test suite,
    the benchmark harness and the [fdsim] CLI all call them.

    Experiment identifiers ([EXP-n]) refer to the index in DESIGN.md and
    EXPERIMENTS.md. *)

open Rlfd_kernel

type outcome = {
  id : string; (** experiment id, e.g. "EXP-1" *)
  claim : string; (** the paper's statement being exercised *)
  expected : string;
  observed : string;
  pass : bool;
}

val pp_outcome : Format.formatter -> outcome -> unit

type config = {
  n : int;
      (** processes, at least 3: the claims' fixed patterns crash p2 and
          p3 (EXP-4a, EXP-9, EXP-11, EXP-13), and EXP-11 crashes p2 and
          p[n] as two distinct processes *)
  seed : int;
  trials : int;
  horizon : Time.t;
  workers : int;
      (** domains used by the campaign-backed sweeps ({!lemma_4_1_totality},
          {!lemma_4_1_needs_realism}, {!exhaustive_small_scope}); every
          outcome is identical at any value, only wall time changes *)
  timeline : Rlfd_obs.Timeline.t;
      (** observatory collector handed to the campaign engine behind the
          sweeps; {!Rlfd_obs.Timeline.null} (the default) records
          nothing at zero cost *)
}

val default_config : config
(** [n = 5], [seed = 2002], [trials = 30], [horizon = 6000], [workers = 1],
    [timeline = Rlfd_obs.Timeline.null]. *)

val lemma_4_1_totality : config -> outcome
(** EXP-1a: consensus with realistic detectors is total — zero totality
    violations over the trial portfolio. *)

val lemma_4_1_needs_realism : config -> outcome
(** EXP-1b: with non-realistic detectors (clairvoyant [S], Marabout),
    consensus still succeeds but totality violations appear. *)

val lemma_4_2_reduction : config -> outcome
(** EXP-2a: [T_{D->P}] over the total algorithm emulates a history
    satisfying class [P] on every trial. *)

val reduction_needs_totality : config -> outcome
(** EXP-2b: the same transformation over a non-total algorithm (the
    rank-based one) yields a history violating strong accuracy. *)

val prop_4_3_sufficiency : config -> outcome
(** EXP-3: with a realistic [P], uniform consensus succeeds for every
    number of crashes from 0 to n-1. *)

val ev_strong_needs_majority : config -> outcome
(** EXP-9: [◊S] consensus succeeds with a correct majority and blocks
    (safely) without one. *)

val prop_5_1_trb : config -> outcome
(** EXP-4a: TRB with [P] meets its specification for correct and crashed
    senders. *)

val prop_5_1_reduction : config -> outcome
(** EXP-4b: the TRB-based emulation of [P] passes the class checks. *)

val marabout_solves_consensus : config -> outcome
(** EXP-7: Section 6.1 — with the future-guessing Marabout, consensus is
    solvable under unbounded failures, via a non-total algorithm. *)

val marabout_algorithm_unsound_realistically : config -> outcome
(** EXP-7b: the same algorithm run with a realistic [P] violates uniform
    agreement in a constructed run: the future-guessing was load-bearing. *)

val uniform_harder_than_consensus : config -> outcome
(** EXP-8: Section 6.2 — rank consensus with [P<] satisfies
    correct-restricted agreement on the portfolio, and a constructed run
    violates uniform agreement. *)

val collapse_s_and_p : config -> outcome
(** EXP-5/6: Section 6.3 — the hierarchy survey: realistic ∩ S ⊆ P;
    Marabout and the clairvoyant member fail realism (including on the
    paper's own F1/F2 example). *)

val abcast_equivalence : config -> outcome
(** EXP-10: atomic broadcast built on consensus delivers a uniform total
    order under unbounded crashes with [P]. *)

val membership_emulates_p : config -> outcome
(** EXP-11: the group membership service emulates [P] against its
    effective pattern, on synchronous and partially synchronous links. *)

val nbac_with_p : config -> outcome
(** EXP-13: non-blocking atomic commitment — the Section 6.2 lineage
    problem — is solved by [P] under unbounded crashes (commit on unanimous
    yes without crashes; abort only with an excuse). *)

val exhaustive_small_scope : config -> outcome
(** EXP-14: small-scope model checking — for [n = 3], {e every} schedule up
    to the step bound preserves uniform agreement and validity for the
    total algorithm with [P], and the explorer finds the uniformity
    witness for the rank algorithm with [P<]. *)

val all : config -> outcome list
(** Every check above, in experiment order. *)

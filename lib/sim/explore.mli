(** Bounded-exhaustive exploration of schedules: a layered search kernel.

    The sampled runs of {!Runner} can miss adversarial interleavings; this
    module enumerates them.  For a fixed failure pattern and detector it
    explores {e every} schedule choice — which alive process steps, and
    which (if any) pending message it receives — up to a step bound, and
    evaluates a safety predicate on every node of the execution tree.

    This is small-scope model checking: with [n = 3] and a dozen steps the
    naive tree is millions of nodes.  The explorer is one depth-first walk
    over one visited set ({!Rlfd_kernel.Hashing.Table}), and {e
    reductions}, each independently selectable, decide which states count
    as "the same", i.e. how much of the tree is quotiented away:

    {ul
    {- [canon]: duplicate-state pruning.  Every reached configuration is
       canonicalized ({!Canon}) — message identifiers, buffer order and
       output-emission order erased — and looked up in a visited set that
       compares full encodings, never just fingerprints.  [canon] also
       enables the {e detector-view canonicalizer}: messages addressed to
       already-crashed processes are erased from the encoding (they can
       never be received), and once the scope {e quiesces} — aliveness and
       every detector view constant through the horizon — the global clock
       is clamped out of the encoding, merging configurations that differ
       only by how long they have idled.  The visited set keeps the
       smallest step count a state was expanded at and re-expands revisits
       that arrive shallower (they have more remaining budget), which keeps
       the clamp sound.}
    {- [por] / [por_lambda]: sleep sets over provably commuting choices.
       Two choices commute at a node when they belong to distinct processes
       that both survive the next tick and whose detector outputs are
       unchanged across it ([d_equal]); after exploring one order the
       explorer does not re-explore the other.  [por] admits only pairs of
       message {e deliveries}; [por_lambda] extends the relation to pairs
       involving internal lambda steps.  Combined with [canon], the visited
       set records the sleep set each state was expanded under and only
       prunes a revisit whose sleep set subsumes the stored one
       (re-expanding under the intersection otherwise) — the standard
       sound combination of sleep sets with state caching.}
    {- [symmetry]: orbit quotienting under process renamings.  Given a
       {!symmetry_spec} (the algorithm's {!Symmetry.renamer}, the value
       renaming its proposals induce, and the detector-output renaming),
       the group of crash-pattern-respecting, detector-equivariant
       permutations is computed per scope ({!Symmetry.crash_respecting},
       {!Symmetry.filter_equivariant}), each configuration is encoded once
       per group element, and the lexicographically smallest encoding is
       the orbit representative stored in the visited set.  Decision
       multisets are quotiented the same way so they stay comparable across
       runs.  States with different crash patterns are never merged — the
       group respects crash times by construction.}}

    All reductions preserve the set of reachable {e decision states} (the
    multiset of outputs emitted so far, canonically encoded — quotiented
    to its orbit representative when symmetry is on): every pruned branch
    is a permutation of commuting steps of an explored one, re-reaches an
    already-expanded state, or is the renaming of an explored branch.
    {!cross_check} verifies this empirically by diffing the reduced
    against the unreduced sets byte-for-byte.

    A found violation is a concrete schedule; exhausting the tree within
    the bounds is a proof of the property for that scope (pattern, bound) —
    a stronger statement than any number of random runs, and the right tool
    for safety clauses of Lemma 4.1 and the agreement properties. *)

open Rlfd_kernel
open Rlfd_fd

type 'o outputs = (Pid.t * 'o) list
(** Decisions emitted so far, in emission order. *)

type 'o violation = {
  at_step : int;
  trail : (Pid.t * Pid.t option) list;
      (** the schedule: (process, sender of received message) per step *)
  schedule : (Pid.t * (Pid.t * string) option) list;
      (** [trail] enriched with the canonical payload bytes of each
          received message — the flight-recorder form {!Replay.execute}
          consumes.  Payloads are [""] unless the run had [capture] (or
          [canon]) on. *)
  outputs : 'o outputs;
  reason : string;
}

type 'o report = {
  nodes_explored : int;
      (** every {e expanded} configuration, the root included; a child
          pruned as a duplicate or slept is not expanded *)
  distinct_states : int;
      (** size of the visited set; equals [nodes_explored] when [canon] is
          off *)
  deduped : int;
      (** children pruned because their canonical state was already
          expanded (0 unless [canon]) *)
  por_pruned : int;
      (** delivery children never generated because they were in the
          sleep set (0 unless [por]) *)
  lambda_pruned : int;
      (** lambda children never generated because they were in the sleep
          set (0 unless [por_lambda]) *)
  orbit_collapsed : int;
      (** children whose orbit representative was a non-identity renaming
          (0 unless symmetry) — each marks a configuration folded onto a
          differently-named twin *)
  complete : bool;
      (** the whole tree fit within the budgets: [false] exactly when
          [max_nodes] left at least one reachable, non-duplicate child
          unexplored, so a tree of exactly [max_nodes] expanded nodes is
          still [complete] and duplicates never spend budget *)
  deepest : int;
  violations : 'o violation list; (** at most [max_violations] *)
  decision_states : string list;
      (** the reachable decision states: canonical multiset encodings
          ({!Canon.multiset}) of the outputs emitted so far, one per
          distinct multiset reached anywhere in the explored tree, sorted
          (orbit representatives when symmetry is on).  Invariant under
          every reduction layer when the run is [complete] — the
          cross-check property. *)
}

val pp_report : Format.formatter -> 'o report -> unit

(** {1 The symmetry reduction} *)

type ('s, 'm, 'd, 'o) symmetry_spec = {
  renamer : ('s, 'm, 'o) Symmetry.renamer;
      (** how a pid renaming acts on the algorithm's state and message
          types — supplied by the algorithm module (e.g.
          {!Rlfd_algo.Ct_strong.renamer}); algorithms whose behaviour
          depends on pid order (rank consensus, marabout) provide none and
          cannot be explored under symmetry *)
  value_map : Symmetry.perm -> 'o -> 'o;
      (** the renaming a permutation induces on decision values — usually
          {!Symmetry.value_map_of_proposals} applied to the scope's
          proposal assignment *)
  d_rename : (Pid.t -> Pid.t) -> 'd -> 'd;
      (** how a renaming acts on detector outputs (e.g. {!Symmetry.rename_set}
          for suspicion sets) — used to check detector equivariance *)
}

type symmetry_mode = [ `Full | `Decisions_only ]
(** [`Full] (the default) quotients both the visited set and the recorded
    decision multisets.  [`Decisions_only] quotients only the decisions —
    no orbit merging — which is how {!cross_check} makes the naive side's
    decision sets comparable with a symmetry-reduced run's. *)

val run :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?max_violations:int ->
  ?canon:bool ->
  ?por:bool ->
  ?por_lambda:bool ->
  ?symmetry:('s, 'm, 'd, 'o) symmetry_spec ->
  ?symmetry_mode:symmetry_mode ->
  ?capture:bool ->
  ?d_equal:('d -> 'd -> bool) ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?metrics:Rlfd_obs.Metrics.t ->
  ?paranoid:bool ->
  ?timeline:Rlfd_obs.Timeline.t ->
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  check:('o outputs -> string option) ->
  ('s, 'm, 'd, 'o) Model.t ->
  'o report
(** [run ~pattern ~detector ~check automaton] walks the full choice tree
    (default [max_steps] 12, [max_nodes] 200_000, [max_violations] 5).
    [check] is evaluated after every output-emitting step on the outputs
    emitted so far and must be prefix-closed (a violated safety property
    stays violated).  Time advances by one tick per step, exactly as in
    {!Runner}.  Raises [Invalid_argument] on [max_steps < 0].

    {b Reduction}: [canon] (default [false]) enables duplicate-state
    pruning, and with it the detector-view canonicalizer.  [por] (default
    [false]) enables sleep sets over delivery pairs, [por_lambda] (default
    [false]) over pairs involving lambda steps; [d_equal] (default
    structural equality) compares
    detector outputs when deciding commutation and quiescence — pass e.g.
    [Pid.Set.equal] for set-valued detectors.  [symmetry] supplies the
    scope's {!symmetry_spec} and enables orbit quotienting (restricted to
    decisions under [~symmetry_mode:`Decisions_only]).  With everything
    off, behaviour is exactly the naive enumeration.  With [canon] on,
    [check] must additionally be insensitive to the emission order of
    outputs (a multiset property — {!agreement_check} and
    {!validity_check} are), because a branch reaching an already-expanded
    state is not re-checked; with [symmetry] on it must moreover be
    invariant under the spec's renamings (agreement and validity are).

    States visited before a budget truncation stay in the visited set
    even though their subtrees were cut short, so duplicate pruning is
    only a completeness (not soundness) guarantee when [complete = false]:
    all exhaustiveness claims attach to [complete = true] runs.

    [capture] (default [false]) computes message encodings even when
    [canon] is off, so every violation's [schedule] carries the payload
    bytes replay needs — the [--record] path.  It never changes what is
    explored, only what a violation remembers.

    [sink] receives one {!Rlfd_obs.Trace.Violation} event per recorded
    violation, plus a {!Rlfd_obs.Trace.Progress} heartbeat every 250_000
    expanded nodes with the node count, rate, depth and — under [canon] —
    the visited-set occupancy and byte estimate; [metrics] gets the
    [explore_nodes] and [explore_violations] counters, the
    [explore_distinct_states], [explore_deduped], [explore_por_pruned],
    [explore_lambda_pruned] and [explore_orbit_collapsed] counters when
    the corresponding layer is enabled, and the [explore_nodes_per_sec]
    throughput gauge.

    [timeline], when not {!Rlfd_obs.Timeline.null}, receives the
    per-phase wall-time split of the walk as four aggregate spans on a
    [dfs] recorder: [expand] (choice application and automaton steps),
    [hash] (interning and incremental lane updates), [encode] (orbit
    choice and key packing), [confirm] (visited-set probe and insert).
    Sampling clocks around every phase costs a few percent, so leave it
    off for throughput measurements; it never changes the report.

    [paranoid] (default [false]) recomputes every configuration's
    fingerprint lanes from scratch at every expanded edge and fails
    ([Failure]) on any divergence from the incrementally maintained ones —
    the property-test hook for the delta-hashing kernel, far too slow for
    real scopes. *)

val describe :
  ?max_steps:int ->
  ?canon:bool ->
  ?por:bool ->
  ?por_lambda:bool ->
  ?symmetry:('s, 'm, 'd, 'o) symmetry_spec ->
  ?d_equal:('d -> 'd -> bool) ->
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  unit ->
  string list
(** The active reductions, resolved for this scope, one human-readable
    line per layer (with the computed quiescence point and symmetry group
    order — both scope-dependent).  What [fdsim explore --explain] prints.
    Runs no exploration. *)

type 'o comparison = {
  reduced : 'o report;  (** the reduced run *)
  unreduced : 'o report;  (** all reductions off *)
  identical : bool;
      (** both runs complete, byte-identical [decision_states], same
          violation count *)
  node_factor : float;
      (** [unreduced.nodes_explored / reduced.nodes_explored] *)
}

val cross_check :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?max_violations:int ->
  ?canon:bool ->
  ?por:bool ->
  ?por_lambda:bool ->
  ?symmetry:('s, 'm, 'd, 'o) symmetry_spec ->
  ?d_equal:('d -> 'd -> bool) ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?metrics:Rlfd_obs.Metrics.t ->
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  check:('o outputs -> string option) ->
  ('s, 'm, 'd, 'o) Model.t ->
  'o comparison
(** Run the same scope twice — reduced (by default [canon] + [por] +
    [por_lambda], each switchable to pin down a single layer, plus
    [symmetry] when a spec is given) and naive — and compare the reachable
    decision-state sets byte-for-byte.  When the reduced side quotients by
    symmetry, the naive side records its decisions through the same
    quotient ([`Decisions_only]) so the comparison happens in one
    coordinate system.  The soundness regression gate for every layer:
    [identical = true] certifies that within this scope the reductions
    lost no reachable decision state. *)

val agreement_check : equal:('o -> 'o -> bool) -> 'o outputs -> string option
(** Ready-made [check]: all emitted decisions are equal (uniform
    agreement).  Order-insensitive, as [canon] requires. *)

val validity_check :
  n:int ->
  proposals:(Pid.t -> 'o) ->
  equal:('o -> 'o -> bool) ->
  'o outputs ->
  string option
(** Ready-made [check]: every decision was somebody's proposal.
    Order-insensitive, as [canon] requires. *)

val both :
  ('o outputs -> string option) ->
  ('o outputs -> string option) ->
  'o outputs ->
  string option

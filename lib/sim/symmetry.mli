(** Symmetry reduction: quotienting explorer states by process renamings.

    Consensus with failure detectors is symmetric in process identity —
    processes differ only by their pid, as the indistinguishability
    arguments the paper's lower bounds rest on exploit.  Two global states
    that differ only by a permutation of process identities (applied to the
    per-process states, the message endpoints and payloads, and the
    proposal values the pids induce) have isomorphic futures, so the
    explorer needs to expand only one representative per orbit.

    Soundness requires the permutation to preserve everything the
    semantics can observe about identity:

    {ul
    {- {b the failure pattern}: [crash_time (apply pi p) = crash_time p]
       for every [p] — a crash-pattern-respecting renaming
       ({!crash_respecting}).  Without this, a renamed state would see a
       different aliveness future, and states with different crash
       patterns must never merge.}
    {- {b the detector}: the module output must be equivariant,
       [query (pi p) t = rename (query p t)] for every process and every
       time inside the exploration horizon.  {!filter_equivariant} checks
       this exhaustively over the scope's table of views (pids and ticks
       are finite) and keeps only the permutations that pass, so
       order-dependent detectors such as [P<] automatically shrink the
       group — usually to the identity.}
    {- {b the algorithm}: the automaton must treat pids uniformly, which a
       {!renamer} witnesses by pushing a renaming through its state and
       message types.  Pid-rank-dependent algorithms (rank consensus,
       marabout) simply provide no renamer.}}

    The group never quotients away the property being checked: agreement
    and validity are invariant under any pid permutation that permutes the
    proposal assignment ({!value_map_of_proposals}), and
    {!Explore.cross_check} verifies the whole construction empirically by
    diffing quotiented decision sets against the naive explorer's. *)

open Rlfd_kernel
open Rlfd_fd

(** {1 Permutations} *)

type perm = private int array
(** A permutation of [{p1 .. pn}]: index [i] holds the 1-based image of
    [p_(i+1)].  Hot paths read it directly ([(pi :> int array)]); only
    this module builds one, so every [perm] is a permutation. *)

val identity : n:int -> perm

val is_identity : perm -> bool

val apply : perm -> Pid.t -> Pid.t

val of_images : int list -> perm
(** [of_images [i1; ...; in]] maps [p_k] to [p_{i_k}].  Raises
    [Invalid_argument] if the list is not a permutation of [1..n]. *)

val images : perm -> int list

val compose : perm -> perm -> perm
(** [compose f g] applies [g] first, then [f]. *)

val inverse : perm -> perm

val multiplication : perm array -> int -> int -> int
(** [multiplication group j k] is the index in [group] of
    [compose group.(j) group.(k)].  Partially applied to [group] it keeps
    the table and builds each row on first use.  Raises
    [Invalid_argument] when a product falls outside [group]. *)

(** {1 Groups from scopes} *)

val crash_respecting : Pattern.t -> perm list
(** Every permutation under which the pattern is invariant: processes are
    grouped into classes by crash time ([None] = correct) and the group is
    the product of the per-class symmetric groups, enumerated
    deterministically (identity first).  The group order is capped at 5040
    ([7!]); larger groups return the identity alone — exhaustive scopes
    are small by construction. *)

val filter_equivariant :
  views:'d array array ->
  d_rename:((Pid.t -> Pid.t) -> 'd -> 'd) ->
  d_equal:('d -> 'd -> bool) ->
  perm list ->
  perm list
(** Keep the permutations [pi] under which the detector is equivariant
    at every tick of the table: [views.(t).(i)] is the output of
    [p_(i+1)]'s module at tick [t], and [pi] passes when the output at
    [apply pi p] equals [d_rename (apply pi)] of the output at [p], for
    every process and tick.  The result is still a group: equivariant
    permutations are closed under composition and inverse. *)

(** {1 Renaming state spaces} *)

type ('s, 'm, 'o) renamer = {
  rename_state : pid:(Pid.t -> Pid.t) -> value:('o -> 'o) -> 's -> 's;
  rename_msg : pid:(Pid.t -> Pid.t) -> value:('o -> 'o) -> 'm -> 'm;
}
(** How a renaming acts on an algorithm's state and message types: [pid]
    must be applied to every embedded process identity (map keys, set
    elements, rank fields), [value] to every embedded proposal-derived
    value.  Supplied by the algorithm module — the only party that knows
    where pids hide inside ['s] and ['m]. *)

val rename_set : (Pid.t -> Pid.t) -> Pid.Set.t -> Pid.Set.t

val value_map_of_proposals :
  n:int -> proposals:(Pid.t -> 'o) -> perm -> 'o -> 'o
(** The value renaming a pid permutation induces on proposal values:
    [proposals p] maps to [proposals (apply pi p)], everything else to
    itself.  Raises [Invalid_argument] if the assignment is inconsistent
    (two processes share a proposal that [pi] would send to different
    values) — with injective or constant proposals it always succeeds. *)

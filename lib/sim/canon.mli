(** Canonical encodings of global explorer states.

    A global state of the bounded-exhaustive explorer ({!Explore}) is the
    step count, the per-process automaton states, the multiset of in-flight
    messages and the multiset of outputs emitted so far.  Two interleavings
    that permute commuting steps reach states that differ only in
    path-dependent bookkeeping — message identifiers, buffer order, output
    emission order.  This module erases exactly that bookkeeping: it maps a
    state to a byte string such that two states get equal bytes iff they are
    equivalent for every future of the exploration (same enabled choices,
    same reachable decisions, same safety verdicts).

    This module is the {e from-scratch definition} of state identity.
    The explorer's hot path no longer assembles these byte strings per
    node: it interns each component once ({!Rlfd_kernel.Intern} — whose
    contract is exactly {!encode_value}'s) and maintains the identity
    incrementally, keying the visited store by packed intern-id vectors.
    What remains load-bearing here: {!encode_value} is the encoding the
    intern tables fingerprint (so the explorer's [~paranoid] audit, which
    recomputes every fingerprint from scratch per edge, checks identity
    in these terms), {!multiset} frames the decision-state sets the
    cross-check mode compares byte-for-byte, and {!assemble} still names
    whole configurations where one self-contained string is worth its
    cost — the final state of a {!Replay} execution. *)

val encode_value : 'a -> string
(** Canonical bytes of one immutable component (an automaton state, a
    message payload paired with its endpoints, an output paired with its
    emitter).  Structurally equal values encode equally; values containing
    functions or cycles are outside the contract (automaton state spaces
    are first-order data). *)

val multiset : string list -> string
(** Order-insensitive encoding of a bag of pre-encoded items: sorted and
    framed so distinct bags never alias.  Used for the reachable
    decision-state sets that {!Explore}'s cross-check mode compares
    byte-for-byte. *)

val assemble :
  step_no:int ->
  states:string list ->
  messages:string list ->
  outputs:string list ->
  string
(** [assemble ~step_no ~states ~messages ~outputs] is the canonical
    encoding of a global state.  [states] must be in ascending process
    order (the explorer derives it from a {!Rlfd_kernel.Pid.Map}, which
    iterates in order); [messages] and [outputs] are sorted internally —
    their order is exactly the bookkeeping being erased.  [step_no] is part
    of the state: detector outputs and crash events are functions of time,
    so states at different depths are never merged. *)

(** Suspicion dissemination for sparse monitoring topologies.

    When each process monitors only O(log n) peers ({!Topology}), most
    (observer, subject) pairs have no direct monitoring edge, yet the
    detector must stay {e complete}: every correct process eventually
    suspects every crashed one.  Each node therefore keeps a {e view} —
    for each subject it has ever heard anything non-trivial about, a
    [(suspected?, since)] verdict stamped with the network time the
    verdict was formed — and the views gossip along the monitoring
    edges:

    - a {e direct} observation (a monitor's own timeout firing, or a
      heartbeat/pong arriving from a suspected process) enters the view
      stamped [now], so it dominates anything older;
    - every monitoring message piggybacks a {!payload} of the sender's
      view; the receiver {!merge}s it, adopting only entries newer than
      its own (refutation beats suspicion on a tie) — so a refuted
      suspicion can never be resurrected by a laggard's stale gossip;
    - adopting something new is worth telling the neighbours about
      immediately (event-driven flooding, {!Monitor}'s job via the
      [changed] result of {!merge}): each node adopts a given verdict at
      most once, so a transition costs O(n · degree) messages and
      reaches everyone in diameter hops instead of diameter periods.

    Suspicion entries are gossiped forever (a crash is permanent);
    refutation entries are gossiped only while fresh — within
    [retention] of the moment {e this node} adopted them, so a
    refutation wave crossing a large-diameter graph is refreshed at
    every hop and cannot die out mid-propagation — but are {e stored}
    forever, which is what blocks stale resurrections.  Memory is
    O(subjects ever suspected), not O(n) per node. *)

open Rlfd_kernel

type t

type payload = (Pid.t * bool * int) list
(** [(subject, suspected?, since)] — the gossipable slice of a view. *)

val create : retention:int -> t
(** [retention] is how long (in network time) an adopted refutation
    keeps being piggybacked; suspicions are piggybacked forever.
    Raises [Invalid_argument] if [retention < 1]. *)

val suspected : t -> Pid.Set.t
(** The subjects currently suspected somewhere in the view — the node's
    output suspicion set.  O(1). *)

val note : t -> subject:Pid.t -> on:bool -> now:int -> t
(** Record a direct observation, stamped [now].  Unconditional: a local
    observation is at least as fresh as anything gossip delivered. *)

val merge : t -> self:Pid.t -> now:int -> payload -> t * bool
(** Fold a received payload into the view.  An entry is adopted iff it
    is strictly newer than what the view holds for that subject, or
    equally new and a refutation displacing a suspicion — a refutation
    is first-hand proof of life at its stamp, a suspicion only the
    absence of proof, so ties must resolve towards accuracy (and a
    monitor that suspects and hears from the suspect within the same
    instant would otherwise strand its retracted suspicion at every node
    the flood already reached).  Entries about [self] are ignored (a
    process knows it is alive).  The [bool] is true iff anything was
    adopted — the caller's cue to flood its updated payload to its
    neighbours. *)

val payload : t -> now:int -> payload
(** What to piggyback at [now]: every suspicion entry, plus refutations
    adopted within [retention].  Sorted by subject, so message contents
    are deterministic. *)

(** One node's suspicion state: the core every timeout detector shares.

    {!Heartbeat} (push) and {!Pingack} (pull) differ only in how proof of
    life reaches a monitor.  Everything a monitor does with it lives here:

    - the {e deadline book}: for each peer this node watches
      ({!Topology.watches}), the network time it was last heard from;
    - the {e direct} suspicions: watched peers whose deadline has passed;
    - the per-link timeouts ({!Adaptive}), bumped when a direct suspicion
      proves premature;
    - the suspicion {e view} ({!Dissem}): the node's output.  It holds the
      direct verdicts and, under a sparse topology, everything adopted
      from gossip.

    A suspicion is born in {!sweep}, when a watched peer's deadline
    passes.  It travels as the news piggybacked on every protocol message
    ({!news}) and as {!flood}ed updates to the monitoring neighbours.  It
    dies when {!alive} hears from the suspect first-hand.  Under
    {!Topology.All_to_all} every pair is watched directly, so nothing is
    piggybacked or flooded and the view holds exactly the direct
    suspicions.

    The state is a pure value that carries the protocol's own state ['p]
    (a heartbeat's watcher list, ping-ack's round bookkeeping), so a
    detector's node state is one record. *)

open Rlfd_kernel

type 'p t

val create :
  topology:Topology.t -> n:int -> self:Pid.t -> period:int -> timeout:int ->
  backoff:int option -> 'p -> 'p t
(** The state at time 0: every watched peer last heard at 0, nothing
    suspected.  [timeout] and [backoff] configure the {!Adaptive} table;
    refutations are piggybacked for [4 * (period + timeout)] after their
    adoption ({!Dissem.create}'s retention).  Raises [Invalid_argument]
    under the same conditions as {!Adaptive.create}. *)

val protocol : 'p t -> 'p

val with_protocol : 'p t -> 'p -> 'p t

val suspected : 'p t -> Pid.Set.t
(** The node's output: the subjects its view suspects. *)

val direct : 'p t -> Pid.Set.t
(** The watched peers this node itself judged overdue and has not heard
    from since. *)

val overdue : 'p t -> now:int -> Pid.Set.t
(** The watched peers whose deadline has passed at [now], computed from
    scratch.  The oracle for {!sweep}: right after [sweep ~now],
    [direct = overdue ~now]. *)

val news : 'p t -> now:int -> Dissem.payload
(** What to piggyback on a protocol message at [now]: the view's
    {!Dissem.payload} under a sparse topology, [[]] under all-to-all. *)

val flood : 'p t -> now:int -> update:(Dissem.payload -> 'm) -> 'm Netsim.command list
(** Send the view, wrapped by [update], to every monitoring neighbour
    ({!Topology.neighbours}); [[]] under all-to-all. *)

val merge :
  'p t -> self:Pid.t -> now:int -> Dissem.payload -> update:(Dissem.payload -> 'm) ->
  'p t * 'm Netsim.command list
(** Fold received news into the view ({!Dissem.merge}), and {!flood} the
    view with [update] if anything was adopted. *)

val alive :
  'p t -> self:Pid.t -> now:int -> Pid.t -> Dissem.payload ->
  update:(Dissem.payload -> 'm) -> 'p t * 'm Netsim.command list
(** Proof of life from a peer, carrying the news it piggybacked.  If this
    node watches the peer, its deadline is refreshed.  If the peer was in
    {!direct}, it leaves it, and its timeout is bumped.  If the view
    suspected it, the suspicion is refuted, stamped [now].  Then the news
    is merged, and the view is {!flood}ed if the refutation or the merge
    changed it. *)

val sweep : 'p t -> now:int -> 'p t * bool
(** The per-period deadline check.  Every watched peer that is overdue
    and not yet in {!direct} joins it, and a suspicion stamped [now]
    enters the view.  The [bool] is true iff some peer joined.  Flooding
    is the caller's choice. *)

val node :
  ?sink:Rlfd_obs.Trace.sink ->
  init:(n:int -> self:Pid.t -> 'p t * 'm Netsim.command list) ->
  on_message:
    (n:int -> self:Pid.t -> now:Netsim.time -> 'p t -> src:Pid.t -> 'm ->
     'p t * 'm Netsim.command list) ->
  on_timer:
    (n:int -> self:Pid.t -> now:Netsim.time -> 'p t -> tag:int ->
     'p t * 'm Netsim.command list) ->
  unit ->
  ('p t, 'm, Pid.Set.t) Netsim.node
(** A detector node from a protocol's handlers.  After every event whose
    handling changed {!suspected}, the node outputs the new set.  [sink]
    receives one {!Rlfd_obs.Trace.Suspect} event per subject that turned
    on or off. *)

(** Heartbeat failure detectors: implementing the abstractions.

    The paper's classes are abstract; these are their concrete timeout
    implementations over the timed network, demonstrating which class each
    synchrony model supports:

    - {!Fixed} on a {e synchronous} link with
      [timeout >= delta + period] implements a Perfect detector: a missing
      heartbeat past the bound proves the sender crashed;
    - {!Fixed} on weaker links over-suspects (false positives) — exactly
      why [P] is not implementable there;
    - {!Adaptive} grows a peer's timeout after each false suspicion
      (per-link state, {!Rlfd_net.Adaptive}), so on a {e partially
      synchronous} link the suspicions are eventually accurate: an
      implementation of [◊P] (hence of [◊S]).

    The protocol is push: every [period] a node sends a beat to each of
    its watchers ({!Topology.watchers}), and a beat is proof of life to
    its receiver.  Everything else — deadlines, timeouts, refutation,
    dissemination and the output — is the shared {!Monitor} core.  Under
    the default {!Topology.All_to_all} assignment the beats go out as one
    [Broadcast] and carry no news, at O(n) per-node bandwidth.  Under a
    sparse assignment ({!Topology.Ring}, {!Topology.Hierarchical}) each
    beat piggybacks the sender's suspicion view, and a sweep that adds a
    suspect floods the view to the monitoring neighbours, so the output
    stays complete at O(degree) per-node bandwidth.

    Each node emits its full suspicion set whenever the set changes, which
    is what {!Qos} consumes. *)

open Rlfd_kernel

type style =
  | Fixed of { period : int; timeout : int }
  | Adaptive of { period : int; initial_timeout : int; backoff : int }

val pp_style : Format.formatter -> style -> unit

type state

type msg

val node :
  ?sink:Rlfd_obs.Trace.sink ->
  ?topology:Topology.t ->
  style ->
  (state, msg, Pid.Set.t) Netsim.node
(** Outputs the new suspicion set at every change.  [sink] additionally
    receives one {!Rlfd_obs.Trace.Suspect} event per on/off suspicion
    transition.

    [topology] (default {!Topology.All_to_all}) selects the monitoring
    assignment.  A node's messages depend only on the seed and the
    arguments — same messages in the same order — so seeded runs
    reproduce. *)

val perfect_timeout : Link.t -> period:int -> int option
(** The timeout that makes {!Fixed} Perfect on the given link model:
    [delta + period + 1] when the link has a delay bound that holds from
    time 0 with no loss ({!Link.bounded_from_start} — synchronous links
    only; [None] for partially synchronous, asynchronous and lossy links,
    where no fixed timeout can promise zero false suspicions). *)

(** Ping-ack failure detection: round-based interrogation.

    Where {!Heartbeat} is push (everyone announces liveness on a clock),
    ping-ack is pull: every [period] a monitor opens a round, PINGs each
    peer it watches, and counts the PONGs.  A peer that has not answered
    midway through the round is re-solicited up to [retries] times —
    the bounded-retry protocol of practical monitors, which rides out a
    single lost datagram without a false suspicion.  Suspicion itself is
    judged by deadline: a watched peer is suspected when no pong has been
    heard for more than its timeout, a full round trip.

    This module holds only the rounds: pings, retries and pong
    bookkeeping.  A pong is proof of life to the shared {!Monitor} core,
    which keeps the deadlines, the per-link timeouts ([?backoff],
    {!Rlfd_net.Adaptive}: a pong from a suspected peer both clears the
    suspicion and grows that link's timeout), the dissemination view and
    the output.  On a sparse {!Topology.t} pings and pongs piggyback the
    view, and a round whose sweep changes the suspect set floods it to
    the monitoring neighbours.

    Emits the full suspicion set at every change — the same output
    contract as {!Heartbeat}, so {!Qos} and {!Qos_stream} consume both
    through one interface ({!Detector_impl}). *)

open Rlfd_kernel

type params = { period : int; timeout : int; retries : int }

type state

type msg

val node :
  ?sink:Rlfd_obs.Trace.sink ->
  ?backoff:int ->
  ?topology:Topology.t ->
  params ->
  (state, msg, Pid.Set.t) Netsim.node
(** Outputs the new suspicion set at every change; [sink] receives
    {!Rlfd_obs.Trace.Suspect} transitions, exactly as {!Heartbeat.node}.

    Raises [Invalid_argument] if [period < 1] or [retries < 0]. *)

val perfect_timeout : Link.t -> period:int -> int option
(** The timeout that makes the detector Perfect on the given link:
    [2 * delta + period + 1] when a delay bound holds from time 0
    ({!Link.bounded_from_start}) — a full round trip where heartbeats
    need only one way. *)

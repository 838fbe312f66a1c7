(** The detector zoo's front door: one specification, many detectors.

    A realistic failure-detection service is a point in a design space —
    {e which protocol} (push heartbeats vs pull ping-ack), {e which
    monitoring graph} ({!Topology}), {e fixed or adaptive} per-link
    timeouts ({!Adaptive}).  This module packs the whole point into a
    first-class {!spec} and erases the per-implementation state types
    behind a module ({!S}) and an existential result ({!simulation}), so
    the QoS machinery, the CLI and the benches are written once and run
    against every member of the zoo.

    Both protocols run on one suspicion core ({!Monitor}): the protocol
    axis changes how proof of life arrives and when a deadline sweep
    floods, never how a suspicion is formed, refuted or output. *)

open Rlfd_kernel
open Rlfd_fd

type impl = [ `Heartbeat | `Pingack ]

type spec = {
  impl : impl;
  topology : Topology.t;
  period : int;
  timeout : int;
      (** per-link timeout (the initial one when adaptive); the
          implementation's [perfect_timeout] makes it Perfect on a
          synchronous link *)
  backoff : int option;  (** [Some b]: adaptive per-link timeouts *)
  retries : int;  (** ping-ack re-solicitations per round; ignored by heartbeat *)
}

val impl_name : impl -> string

val impl_of_string : string -> (impl, string) result
(** ["heartbeat"]/["hb"] and ["pingack"]/["ping-ack"]/["pa"]. *)

val describe : spec -> string
(** One line for humans, e.g. ["pingack/hier period=50 timeout=71 retries=1"]. *)

val to_json : spec -> Rlfd_obs.Json.t
(** The self-describing scope-header fragment: impl, topology, period,
    timeout, adaptive (+backoff), retries for ping-ack. *)

(** A detector instance ready to run: its node, with the state and
    message types erased. *)
module type S = sig
  type state

  type msg

  val node : (state, msg, Pid.Set.t) Netsim.node
end

type detector = (module S)

val instantiate :
  ?sink:Rlfd_obs.Trace.sink ->
  n:int ->
  spec ->
  detector
(** Build the node the spec describes; [sink] receives its
    {!Rlfd_obs.Trace.Suspect} transitions.  [n] is unread: a node learns
    the population size from {!Netsim.run}.  The argument stays only
    because the repository benchmark passes it. *)

type simulation = Sim : ('s, Pid.Set.t) Netsim.result -> simulation
    (** A finished run with its state type erased: every detector outputs
        [Pid.Set.t] suspicion sets, which is all QoS analysis reads. *)

val simulate :
  ?until:((Netsim.time * Pid.t * Pid.Set.t) list -> bool) ->
  ?retain_outputs:bool ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?partitions:Partition.t list ->
  n:int ->
  pattern:Pattern.t ->
  model:Link.t ->
  seed:int ->
  horizon:Netsim.time ->
  spec ->
  simulation
(** {!instantiate} then {!Netsim.run}, with every observability and
    scenario knob passed through. *)

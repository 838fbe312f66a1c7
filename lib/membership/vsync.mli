(** View-synchronous multicast (virtual synchrony) on top of the group
    membership machinery.

    The systems the paper points at in Section 1.3 (Isis/Transis-style
    group communication, Powell's CACM issue [14]) do not just exclude
    suspects — they synchronise message delivery with view changes:

    - messages are delivered in the view they were sent in;
    - any two processes that install the next view have delivered exactly
      the same set of messages in the previous view (the flush).

    Protocol: members multicast application payloads inside the current
    view and heartbeat each other; when the view's coordinator suspects a
    member it sends [Prepare]; members stop multicasting and answer with
    their view log; the coordinator unions the logs and sends [Install];
    receivers deliver the messages they missed, install the view, and —
    if excluded — fail-stop.  Every suspicion again "turns out accurate",
    and the per-view delivery sets agree.

    This is a teaching-grade virtual synchrony (a single coordinator per
    change, priority by smallest proposer, no concurrent-partition
    merging); its guarantees are validated by the checkers below on
    synchronous and partially synchronous links. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_net

type config = { period : int; timeout : int }

val default_config : config

(** An application message, identified by origin and per-origin sequence. *)
type 'v item = { origin : Pid.t; seq : int; data : 'v }

type 'v event =
  | Delivered of { view : int; item : 'v item }
  | View_installed of { id : int; members : Pid.Set.t }
  | Excluded_self

val pp_event : (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v event -> unit

type 'v msg

type 'v state

val current_view : 'v state -> int * Pid.Set.t

val node :
  config -> to_send:(Pid.t -> 'v list) -> ('v state, 'v msg, 'v event) Netsim.node
(** Each member multicasts its payloads, one per heartbeat tick, while the
    view is stable. *)

(** {1 Checkers} *)

val delivery_in_sending_view : ('s, 'v event) Netsim.result -> Classes.result
(** No item is delivered in two different views by different processes. *)

val check : ('s, 'v event) Netsim.result -> (string * Classes.result) list
(** Every checker, by name: view agreement (processes that install the
    same view have delivered exactly the same item set in the preceding
    view — virtual synchrony's defining property), delivery in the
    sending view (above), and no duplicates (no process delivers the same
    item identity twice). *)

(** Timed discrete-event network simulator.

    Where {!Rlfd_sim} executes the paper's abstract FLP model (steps and an
    inaccessible global clock), this simulator models the {e system
    underneath}: nodes with local timers exchanging messages over links
    with real delays.  It is the substrate on which failure detectors are
    {e implemented} (heartbeats and timeouts, {!Heartbeat}) rather than
    assumed, and on which the group membership service runs.

    Nodes are pure state machines driven by three handlers (init, message,
    timer) returning commands; all randomness (delays) comes from the
    seed, so runs are reproducible.  Crashes are injected from a
    {!Rlfd_fd.Pattern.t} interpreted over network time. *)

open Rlfd_kernel
open Rlfd_fd

type time = int

type 'm command =
  | Send of Pid.t * 'm
  | Broadcast of 'm (** to every other node *)
  | Set_timer of { delay : int; tag : int }
  | Halt (** fail-stop: the node stops processing all future events *)

type ('s, 'm, 'o) node = {
  init : n:int -> self:Pid.t -> 's * 'm command list;
  on_message :
    n:int -> self:Pid.t -> now:time -> 's -> src:Pid.t -> 'm -> 's * 'm command list * 'o list;
  on_timer :
    n:int -> self:Pid.t -> now:time -> 's -> tag:int -> 's * 'm command list * 'o list;
}

type ('s, 'o) result = {
  n : int;
  pattern : Pattern.t;
  model : Link.t;
  outputs : (time * Pid.t * 'o) list; (** chronological *)
  final_states : 's Pid.Map.t;
  halted : (time * Pid.t) list; (** self-halts (fail-stop), chronological *)
  events_processed : int;
  messages_delivered : int;
  end_time : time;
}

val run :
  ?until:((time * Pid.t * 'o) list -> bool) ->
  ?retain_outputs:bool ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?partitions:Partition.t list ->
  n:int ->
  pattern:Pattern.t ->
  model:Link.t ->
  seed:int ->
  horizon:time ->
  ('s, 'm, 'o) node ->
  ('s, 'o) result
(** The pattern's {!Rlfd_kernel.Time.t} values are read as network time.
    [until] sees the outputs emitted so far, most recent first.

    [partitions] (default [[]]): a schedule of network partitions.  A send
    whose endpoints {!Partition.separated} at send time is dropped before
    the link model samples — it consumes no randomness, so adding a
    partition schedule never perturbs the delays of surviving messages.
    Partition drops emit {!Rlfd_obs.Trace.Drop}, as link losses do.

    [retain_outputs] (default [true]): when [false] the result's
    [outputs] list stays empty — the bounded-memory mode for large-n runs
    whose observability flows through [sink] taps (the streaming QoS
    observatory, {!Qos_stream}) instead of post-hoc analysis.  [until]
    then only ever sees [[]], so combine it with a horizon, not an
    output predicate.

    {b Observability} (off by default, free when off): [sink] receives the
    full message lifecycle ({!Rlfd_obs.Trace.Send} / [Deliver] / [Drop]),
    timer events ([Timer_set] / [Timer_fire]), [Crash] (emitted once, the
    first time the crash suppresses an event) and [Halt];
    {!Rlfd_obs.Metrics.sink} counts them, and the result carries
    [events_processed]. *)

val outputs_of : ('s, 'o) result -> Pid.t -> (time * 'o) list

(** Run executor (paper, Sections 2.4–2.5).

    The one implementation of the model's step [(p, m, d, A)] ({!step}),
    and the executor that drives it under a {!Scheduler} ({!run}),
    producing the finite prefix of a run: [R = <F, H, C, S, T>] with one
    clock tick per scheduled step.  {!Replay.execute} drives the same step
    under a recorded schedule.  The step enforces the validity conditions
    of the model: only alive processes step, a step receives at most one
    buffered message destined to it, and the detector value seen is
    [H(p, t)] for the step's own time.

    The step tags every message with the sender's heard-from set, so the
    processes in each event's {e causal chain} are known afterwards: the
    totality checker of Lemma 4.1 reads them, and nothing else does. *)

open Rlfd_kernel
open Rlfd_fd

(** An in-flight message with the sender's heard-from set at the step
    that sent it. *)
type 'm tagged = { payload : 'm; hf : Pid.Set.t }

(** {1 The step} *)

(** A configuration: every process's state and heard-from set, and the
    messages in transit.  Arrays are indexed by [Pid.to_int p - 1]; the
    step updates them in place.  The buffer holds only messages a process
    can still receive: a message sent to a process already crashed at the
    step's time is never received (Section 2), so the step draws its id
    ({!Buffer.skip}) and stores nothing.  Such a message still counts as
    sent: it has an id in [sent_ids], and counts in a result's [sent]. *)
type ('s, 'm) config = {
  states : 's array;
  heard_from : Pid.Set.t array;  (** as in {!event}, after the last step *)
  buffer : 'm tagged Model.envelope Buffer.t;
}

val initial : n:int -> ('s, 'm, 'd, 'o) Model.t -> ('s, 'm) config
(** The initial configuration: initial states, each process heard only
    from itself, and an empty buffer. *)

(** What one step did. *)
type ('s, 'm, 'd, 'o) transition = {
  received : 'm tagged Model.envelope option;  (** [None] = lambda *)
  seen : 'd;  (** the detector value the step saw *)
  effects : ('s, 'm, 'o) Model.effects;
  sent_ids : Buffer.id list;  (** buffer ids of [effects.sends], same order *)
}

val step :
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  ('s, 'm, 'd, 'o) Model.t ->
  ('s, 'm) config ->
  time:Time.t ->
  pid:Pid.t ->
  receive:Buffer.id option ->
  ('s, 'm, 'd, 'o) transition
(** [step ~pattern ~detector algo c ~time ~pid ~receive] is process
    [pid]'s step at [time]: it removes the message [receive] from the
    buffer ([None] = the null message) and adds the message's tag to
    [pid]'s heard-from set, queries the detector at [time], applies the
    automaton and puts in transit the sends to processes not crashed by
    [time], each tagged with that updated set.  The sends get consecutive
    ids.  Raises [Invalid_argument] if [pid] has crashed by [time], if the
    message was already consumed, or if it is destined to another
    process. *)

(** {1 Runs} *)

(** One scheduled step. *)
type 'o event = {
  time : Time.t;
  pid : Pid.t;
  received : Pid.t option; (** sender of the received message; [None] = lambda *)
  received_id : Buffer.id option;
      (** buffer id of that message — with [sent_ids], the exact message
          identity the flight recorder needs for faithful replay *)
  sent_to : Pid.t list;
  sent_ids : Buffer.id list; (** buffer ids of [sent_to], same order *)
  outputs : 'o list;
  heard_from : Pid.Set.t;
      (** processes having a message in this event's causal chain (includes
          the stepping process itself) *)
}

type 'o log
(** The run log: every step in flat arrays, one per field of {!event}
    (the sends as a first id and one destination per id).  Recording a
    step writes a few array cells, and builds no record or list;
    {!events} reads the log back. *)

(** The finite run prefix: everything the property checkers consume.
    Holds no closure or lazy value, so results compare with [=] and can be
    shared across domains. *)
type ('s, 'o) result = {
  n : int;
  pattern : Pattern.t;
  algorithm : string;
  log : 'o log;
  outputs : (Time.t * Pid.t * 'o) list; (** chronological *)
  final_states : 's Pid.Map.t; (** last state of every process, crashed included *)
  steps : int;
  idle_ticks : int;
  sent : int;
  delivered : int;
  end_time : Time.t;
  stopped_early : bool; (** the [until] predicate fired before the horizon *)
}

val events : ('s, 'o) result -> 'o event list
(** The run's steps, chronological, built afresh from the log on each
    call. *)

val output_events : ('s, 'o) result -> 'o event list
(** The steps of {!events} that emitted outputs, chronological.  The log's
    other steps are skipped, not built, so a checker of decisions builds a
    handful of events however long the run. *)

val run :
  ?until:((Time.t * Pid.t * 'o) list -> bool) ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?pp_output:('o -> string) ->
  ?pp_seen:('d -> string) ->
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  scheduler:'m tagged Scheduler.t ->
  horizon:Time.t ->
  ('s, 'm, 'd, 'o) Model.t ->
  ('s, 'o) result
(** [until] sees the outputs emitted so far, {e most recent first}; the run
    stops as soon as it returns [true].  Each scheduled step is one
    {!step}, recorded in the log, so a scheduler that steps a crashed
    process or delivers a consumed or misaddressed message raises
    [Invalid_argument].

    {b Observability} (all off by default and free when off):
    - [sink] receives exactly one {!Rlfd_obs.Trace.Step} event per
      scheduled step — so a JSONL export has as many lines as the run has
      [steps].  [pp_output] renders algorithm outputs into the event (default
      ["_"]); [pp_seen] (off by default) renders the failure-detector
      value the step saw.
    - {!Rlfd_obs.Metrics.sink} counts these events as [steps],
      [messages_sent], [messages_delivered] and [outputs]; the result
      carries [idle_ticks]. *)

val outputs_of : ('s, 'o) result -> Pid.t -> (Time.t * 'o) list
(** Chronological outputs of one process. *)

val first_output : ('s, 'o) result -> Pid.t -> (Time.t * 'o) option
(** Earliest output of one process, if any. *)

val stop_when_all_correct_output : Pattern.t -> (Time.t * Pid.t * 'o) list -> bool
(** Ready-made [until]: stop once every correct process has output.
    [stop_when_all_correct_output pattern] computes the pattern's correct
    set once, when partially applied, so pass it to {!run} that way; the
    run then calls it on each step that outputs. *)

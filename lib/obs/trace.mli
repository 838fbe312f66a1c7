(** Structured run tracing: a stable event schema and pluggable sinks.

    Every instrumented component of the stack — the abstract-model executor
    {!Rlfd_sim.Runner}, the bounded-exhaustive explorer {!Rlfd_sim.Explore},
    the timed network {!Rlfd_net.Netsim} and the heartbeat detectors —
    emits {!event} values into a {!sink}.  A sink decides what happens to
    them: nothing ({!null}, the default everywhere, so instrumentation is
    free when off), in-memory accumulation ({!memory}), JSONL to a channel
    or buffer ({!to_channel}, {!to_buffer}), or human-readable lines to a
    formatter ({!formatter}).  {!tee} fans one emission out to several
    sinks, which is how [fdsim run --trace --trace-out FILE] guarantees the
    printed trace and the archived JSONL come from the same event stream
    and can never diverge.

    The schema is versioned ({!schema_version}); {!to_json} and {!of_json}
    round-trip every constructor, which [test/test_obs.ml] checks. *)

val schema_version : int
(** Bumped on any incompatible change to the JSON encoding. *)

(** One observable incident of a run.  Times are plain ints: model ticks
    under {!Rlfd_sim.Runner} and network time under {!Rlfd_net.Netsim};
    processes are 1-based indices (as {!Rlfd_kernel.Pid.to_int}). *)
type event =
  | Step of {
      time : int;
      pid : int;
      received_from : int option;  (** [None] = the null message lambda *)
      sent_to : int list;
      outputs : string list;  (** rendered by the caller's [pp_output] *)
      seen : string option;  (** rendered failure-detector output, if any *)
    }  (** one scheduled step of the abstract model (= one clock tick) *)
  | Idle of { time : int }  (** the scheduler let the tick pass *)
  | Send of { time : int; src : int; dst : int }
  | Deliver of { time : int; src : int; dst : int }
  | Drop of { time : int; src : int; dst : int }  (** lost by a lossy link *)
  | Timer_set of { time : int; pid : int; tag : int; fires_at : int }
  | Timer_fire of { time : int; pid : int; tag : int }
  | Suspect of { time : int; observer : int; subject : int; on : bool }
      (** a suspicion transition: [on] = started suspecting *)
  | Output of { time : int; pid : int; value : string }
  | Crash of { time : int; pid : int }
  | Halt of { time : int; pid : int }  (** voluntary fail-stop *)
  | Violation of { time : int; reason : string }
      (** a safety violation found by {!Rlfd_sim.Explore} ([time] = depth) *)
  | Note of { time : int; label : string }  (** free-form annotation *)
  | Progress of {
      time : int;  (** elapsed wall-clock milliseconds since the run began *)
      label : string;  (** which long-running path: ["explore"], a campaign name *)
      done_ : int;  (** units completed so far (nodes, jobs) *)
      total : int option;  (** budget if known, [None] for open-ended work *)
      rate : float;  (** units per second since the run began *)
      detail : (string * float) list;
          (** emitter-specific gauges: depth, distinct/deduped/por_pruned
              counters, visited-table bytes, ETA seconds, job-latency
              percentiles *)
    }
      (** periodic liveness heartbeat from {!Rlfd_sim.Explore} and
          {!Rlfd_campaign.Engine}, so multi-minute runs are observable
          while they run *)
  | Qos_snapshot of {
      time : int;  (** network time of the snapshot *)
      label : string;  (** which scope, e.g. ["qos n=1000 loss=0.05"] *)
      suspected : int;  (** (observer, subject) pairs currently suspected *)
      detected : int;  (** crashed pairs currently detected *)
      undetected : int;  (** crashed pairs not yet detected *)
      false_episodes : int;  (** mistakes confirmed so far *)
      det_p50 : float;
      det_p95 : float;
      det_p99 : float;
          (** rolling detection-latency percentiles (0 when none yet) *)
      msgs : int;  (** messages sent so far *)
      bandwidth : float;  (** messages per time unit since the previous snapshot *)
    }
      (** periodic QoS checkpoint from {!Rlfd_net.Qos_stream} (schema v3):
          the live face of the streaming observatory, replayable by the
          flight recorder like any other event *)

val time_of : event -> int

val to_json : event -> Json.t
(** One self-describing object: [{"ev": "step", ...}]. *)

val of_json : Json.t -> (event, string) result
(** Inverse of {!to_json}; rejects unknown ["ev"] tags and missing
    fields. *)

val parse_line : string -> (event, string) result
(** One JSONL line: {!Json.of_string} then {!of_json}. *)

val render : event -> string
(** The canonical human-readable one-liner — the only step-trace renderer
    in the repository, shared by [fdsim run --trace] and the {!formatter}
    sink. *)

val pp : Format.formatter -> event -> unit

(** {1 Sinks} *)

type sink

val null : sink
(** Swallows everything.  The default of every instrumented entry point. *)

val is_null : sink -> bool
(** Hot loops use this to skip building events entirely when nobody
    listens. *)

val memory : unit -> sink
(** Accumulates events; read them back with {!contents}. *)

val contents : sink -> event list
(** Chronological events of a {!memory} sink (including those reaching it
    through {!tee}); [[]] for every other sink. *)

val to_channel : out_channel -> sink
(** One compact JSON object per line (JSONL).  The caller owns the
    channel; flushing happens per line. *)

val to_buffer : Buffer.t -> sink
(** JSONL into a [Buffer.t] — what the round-trip tests use. *)

val formatter : Format.formatter -> sink
(** {!render}s each event followed by a newline. *)

val callback : (event -> unit) -> sink
(** Hands every event to [f] — the hook the streaming QoS estimator uses
    to tap a {!Rlfd_net.Netsim} run.  Never {!is_null}; {!contents} is
    [[]]. *)

val tee : sink -> sink -> sink
(** Emits into both; {!is_null} iff both sides are. *)

val emit : sink -> event -> unit

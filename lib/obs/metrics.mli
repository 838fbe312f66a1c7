(** A named-metrics registry: counters, gauges and histograms.

    One registry instance collects everything a scenario produces —
    messages sent and delivered, idle ticks, suspicion transitions,
    detection latencies — under stable, documented names, so experiments
    can be regressed against numbers instead of eyeballed logs.  Metrics
    are created on first use; re-using a name with a different kind is a
    programming error and raises.

    Histograms are backed by {!Sketch} — a mergeable, fixed-memory
    log-bucketed quantile sketch — so a registry's footprint is bounded
    by metric cardinality and dynamic range, never by run length: the
    property that lets the streaming QoS observatory watch n=1,000
    heartbeat campaigns without retaining per-sample lists.  Counts,
    sums and extremes are exact; quantiles are within
    {!Sketch.relative_error} (about 1%).

    No simulator writes to a registry.  A run reports what happens as
    {!Trace} events and its totals in its result; the registry's owner
    ([fdsim metrics], the bench harness) counts the first with {!sink}
    and lands the second itself.

    Counted from events by {!sink}, from {!Rlfd_sim.Runner},
    {!Rlfd_net.Netsim} and the detector nodes:
    - ["steps"], ["messages_sent"], ["messages_delivered"], ["outputs"] —
      {!Trace.Step}
    - ["messages_sent"], ["messages_delivered"], ["messages_dropped"] —
      {!Trace.Send}, {!Trace.Deliver}, {!Trace.Drop}
    - ["timers_set"], ["timers_fired"], ["crashes"], ["halts"] —
      {!Trace.Timer_set}, {!Trace.Timer_fire}, {!Trace.Crash},
      {!Trace.Halt}
    - ["suspicion_transitions"] — {!Trace.Suspect}

    Landed by the owner from results and reports:
    - ["events_processed"] — {!Rlfd_net.Netsim.result}
    - ["idle_ticks"] (only when above 0) — {!Rlfd_sim.Runner.result}
    - ["monitor_degree"] (gauge: per-node monitoring load of the
      topology) — {!Rlfd_net.Topology.degree}
    - ["detection_latency"], ["mistake_duration"],
      ["mistake_recurrence"] (histograms),
      ["false_suspicion_episodes"], ["partition_suspicion_episodes"],
      ["undetected_crash_pairs"], ["qos_messages_dropped_partition"]
      (counters), ["undetected_fraction"], ["query_accuracy"] (gauges) —
      {!Rlfd_net.Qos.observe} and {!Rlfd_net.Qos_stream.observe}
    - ["explore_nodes"], ["explore_violations"],
      ["explore_distinct_states"], ["explore_deduped"],
      ["explore_por_pruned"], ["explore_lambda_pruned"],
      ["explore_orbit_collapsed"] — {!Rlfd_sim.Explore.report}; and
      ["explore_nodes_per_sec"] (gauge) from the owner's own clock
    - ["campaign_jobs"], ["campaign_job_seconds"] (histogram),
      ["campaign_steals"], ["pool_domains"] (gauge) — the executed
      outcomes, their wall times, [steals] and [pool_domains] of a
      {!Rlfd_campaign.Engine.report}
    - ["gc_minor_collections"], ["gc_major_collections"],
      ["gc_compactions"], ["gc_promoted_words"], ["gc_heap_words"],
      ["gc_top_heap_words"], ["gc_minor_words"], ["gc_major_words"]
      (gauges) — {!observe_gc}, called by [fdsim metrics] before export *)

type t

val create : unit -> t

(** {1 Recording} *)

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at 0).  Raises [Invalid_argument] if the name
    is already a gauge or histogram. *)

val set_gauge : t -> string -> float -> unit
(** Last-write-wins instantaneous value. *)

val observe : t -> string -> float -> unit
(** Fold one sample into a histogram's sketch.  O(1). *)

val sink : t -> Trace.sink
(** The meter: a sink that counts each event into the registry under the
    names above.  A {!Trace.Step} adds 1 to ["steps"], the length of its
    [sent_to] to ["messages_sent"], 1 to ["messages_delivered"] when it
    received a message, and the number of its outputs to ["outputs"].
    [Send], [Deliver], [Drop], [Timer_set], [Timer_fire], [Crash], [Halt]
    and [Suspect] each add 1 to their counter.  Every other event is
    ignored, so a kind that never occurs leaves no key.  {!Trace.tee} it
    with the sink a run already takes. *)

val observe_gc : t -> unit
(** Snapshot [Gc.quick_stat] into gauges: ["gc_minor_collections"],
    ["gc_major_collections"], ["gc_compactions"], ["gc_promoted_words"],
    ["gc_heap_words"], ["gc_top_heap_words"], ["gc_minor_words"],
    ["gc_major_words"].  Gauges are last-write-wins, so call it at the
    moment the registry is about to be reported (cumulative
    since-process-start values, as the runtime reports them). *)

val observe_sketch : t -> string -> Sketch.t -> unit
(** Merge a whole pre-built sketch into a histogram — how the streaming
    QoS estimator lands its per-run sketches in a registry without ever
    materialising samples. *)

(** {1 Reading} *)

val counter_value : t -> string -> int
(** 0 for an absent name. *)

val gauge_value : t -> string -> float option

val histogram : t -> string -> Sketch.t option
(** The live sketch behind a histogram (not a copy); [None] for an
    absent name. *)

val histogram_count : t -> string -> int
(** Samples folded into a histogram so far; 0 for an absent name. *)

val names : t -> string list
(** Every registered name, sorted. *)

val is_empty : t -> bool

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {..}}].  Each
    histogram is its {!Sketch.to_json} summary: count/sum/mean/min/max,
    p50/p95/p99 with their exact bucket bounds, and the log-bucket rows. *)

val pp : Format.formatter -> t -> unit
(** The registry as an aligned table: one row per metric, histograms as
    their {!Sketch.pp} one-liner. *)

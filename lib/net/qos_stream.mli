(** The streaming QoS observatory: Chen–Toueg detector-quality metrics
    computed online from {!Netsim} event taps, in bounded memory.

    {!Qos.analyze} is post-hoc: it needs the fully retained output list
    of a run, which is O(run length) memory and blocks the large-n
    workload axis.  This estimator instead listens to the live event
    stream — {!Rlfd_obs.Trace.Suspect} transitions from
    {!Heartbeat.node}, [Send]/[Deliver]/[Drop] from the simulator — and
    keeps O(1) state per (observer, subject) pair {e ever suspected} —
    allocated lazily, so a sparse-topology n=10,000 scope costs far less
    than n^2 — plus three fixed-memory {!Rlfd_obs.Sketch} quantile
    sketches.  Run it with [Netsim.run ~retain_outputs:false] and nothing
    grows with simulated time.

    It computes {e exactly} what {!Qos.analyze} computes (same episode
    classification, same latency and mistake-duration multisets, same
    flags — {!agrees} cross-checks this on every portfolio run), plus
    streaming-only extras: mistake {e recurrence} times, Chen–Toueg
    query accuracy, and live {!Rlfd_obs.Trace.Qos_snapshot} telemetry
    with rolling detection-latency percentiles and bandwidth.

    Typical wiring:
    {[
      let est = Qos_stream.create ~label ~n ~pattern () in
      let tap = Qos_stream.sink est in
      let r =
        Netsim.run ~retain_outputs:false ~sink:tap ~n ~pattern ~model
          ~seed ~horizon
          (Heartbeat.node ~sink:tap style)
      in
      Qos_stream.finish est ~end_time:r.Netsim.end_time
    ]} *)

open Rlfd_fd

type t

val create :
  ?label:string ->
  ?snapshot_every:int ->
  ?progress:Rlfd_obs.Trace.sink ->
  ?retain_samples:bool ->
  ?partitions:Partition.t list ->
  n:int ->
  pattern:Pattern.t ->
  unit ->
  t
(** [snapshot_every] (network-time units, default 0 = never) emits a
    {!Rlfd_obs.Trace.Qos_snapshot} into [progress] whenever that much
    simulated time has passed since the last one.  [retain_samples]
    (default [false]) keeps the exact mistake-duration list so
    {!to_report} can reproduce a full {!Qos.report} — the small-n oracle
    mode; leave it off for bounded memory.  [partitions] (default [[]])
    must be the schedule the run is simulated under; it drives the
    partition-induced classification of false episodes and drops, with
    the same {!Partition.separated} predicate {!Netsim} and
    {!Qos.analyze} use. *)

val sink : t -> Rlfd_obs.Trace.sink
(** The estimator's tap.  Pass it (or a {!Rlfd_obs.Trace.tee} including
    it) as the [sink] of both {!Netsim.run} and {!Heartbeat.node};
    events it does not care about are ignored. *)

(** What the observatory knows at the end of a run.  [detected],
    [undetected], [false_episodes], [complete], [accurate] and the
    [detection]/[mistake] sketch contents match {!Qos.analyze} exactly;
    [recurrence] (times between successive false-suspicion starts of the
    same pair) and [query_accuracy] (fraction of (correct pair × time)
    not falsely suspected) are streaming-only extras. *)
type summary = {
  label : string;
  n : int;
  pairs : int;  (** correct observer × other subject pairs judged *)
  detected : int;
  undetected : int;
  false_episodes : int;
  partition_episodes : int;
      (** false episodes that started across an active cut — matches
          {!Qos.analyze}'s [partition_episodes] exactly *)
  detection : Rlfd_obs.Sketch.t;  (** detection latencies *)
  mistake : Rlfd_obs.Sketch.t;  (** mistake durations *)
  recurrence : Rlfd_obs.Sketch.t;  (** mistake recurrence times *)
  query_accuracy : float;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  dropped_partition : int;
      (** drops between endpoints separated at drop time — i.e., the
          partition's own toll, as opposed to link loss *)
  complete : bool;
  accurate : bool;
  end_time : int;
}

val finish : t -> end_time:int -> summary
(** Close the books at [end_time] — classify still-open suspicion
    episodes exactly as {!Qos.analyze} does (open on a crashed subject =
    the detection; open on a correct subject = a mistake running to
    [end_time]; a crashed subject with no open episode = undetected).
    Pure: the estimator keeps accepting events afterwards, and calling
    [finish] again is fine. *)

val to_report : t -> end_time:int -> Qos.report option
(** The estimator's numbers as a {!Qos.report} — [None] unless the
    estimator was created with [~retain_samples:true].  [messages] is
    the delivered count, as in {!Qos.analyze}. *)

val agrees : summary -> Qos.report -> (unit, string) result
(** The streaming-vs-post-hoc cross-check: pair counts, episode counts,
    flags, message counts, and the count/sum/min/max of both sketches
    against the report's raw lists (sum, min and max within 1e-6
    relative: [|a - b| <= 1e-6 * max 1 |b|]).  [Error] names the first
    disagreeing field with both values — what [fdsim qos --check] and the
    CI smoke prints. *)

val observe : Rlfd_obs.Metrics.t -> summary -> unit
(** Land the summary in a registry under the same names {!Qos.observe}
    uses — [detection_latency] / [mistake_duration] histograms via
    sketch merge, [false_suspicion_episodes] /
    [partition_suspicion_episodes] / [undetected_crash_pairs] counters,
    [undetected_fraction] gauge — plus the streaming extras
    [mistake_recurrence] (histogram), [qos_messages_dropped_partition]
    (counter) and [query_accuracy] (gauge). *)

val pp_summary : Format.formatter -> summary -> unit

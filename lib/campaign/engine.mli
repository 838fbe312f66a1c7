(** The multicore campaign engine, a client of the persistent {!Pool}.

    [run] turns any (job index → result) function into a campaign: the
    job range is split into one contiguous work range per worker slot,
    the process-wide domain pool's participants claim batches from their
    own range with a single fetch-and-add and {e steal} from the others'
    once theirs is dry, and every job gets a private deterministic
    random stream derived from the campaign seed and its own index
    ([Rlfd_kernel.Rng.of_path ~seed [index]]).  Because a job's stream,
    inputs and identity depend only on its index — never on which worker
    runs it or when — the aggregated report, its outcomes sorted by job
    index, is identical at any worker count, which {!report_lines} makes
    checkable byte-for-byte.

    With a {!checkpoint} the engine appends one {!Checkpoint} entry per
    finished job (flushed, so a kill loses at most one in-flight line);
    with [resume] set it first loads that file and re-runs only the
    missing jobs.  A resumed campaign therefore completes with no
    duplicate job ids, and its {!report_lines} equal an uninterrupted
    run's. *)

type 'r codec = {
  encode : 'r -> Rlfd_obs.Json.t;
  decode : Rlfd_obs.Json.t -> ('r, string) result;
}
(** How results cross the checkpoint file.  [decode] failures on resume are
    harmless: the job is simply re-run (and counted in [skipped]). *)

type 'r checkpoint = {
  path : string;  (** the completion log *)
  codec : 'r codec;  (** how its entries encode results *)
  resume : bool;
      (** [true]: load [path] first and run only the jobs it lacks;
          [false]: start the log afresh *)
}
(** Where and how a campaign logs its finished jobs. *)

(** One finished job. *)
type 'r outcome = {
  job : int;  (** the job's index in [0 .. total - 1] *)
  label : string;  (** the label the campaign gave this index *)
  elapsed_s : float;  (** wall time of this job alone *)
  value : 'r;  (** what the job function returned *)
}

(** The aggregated campaign result. *)
type 'r report = {
  campaign : string;
  seed : int;
  total : int;
  outcomes : 'r outcome list;  (** sorted by job index; length = [total] *)
  resumed : int;  (** jobs recovered from the checkpoint *)
  duplicates : int;  (** checkpoint entries for an already-seen job id *)
  skipped : int;  (** malformed / torn / undecodable / out-of-range lines *)
  workers : int;  (** worker slots the campaign was asked for *)
  steals : int;  (** batches claimed from another slot's range *)
  pool_domains : int;  (** pool participants that entered this run *)
  wall_s : float;  (** end-to-end wall time *)
}

val run :
  ?workers:int ->
  ?checkpoint:'r checkpoint ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?timeline:Rlfd_obs.Timeline.t ->
  name:string ->
  seed:int ->
  total:int ->
  label:(int -> string) ->
  (rng:Rlfd_kernel.Rng.t -> metrics:Rlfd_obs.Metrics.t -> int -> 'r) ->
  'r report
(** [run ~name ~seed ~total ~label f] executes jobs [0 .. total - 1].

    [f ~rng ~metrics index] gets a stream private to [index].  [metrics]
    is a scratch registry, one per pool participant, that nothing reads:
    it stays only because the repository benchmark's job ([perfbench/])
    takes [~metrics:_], just as {!Rlfd_net.Detector_impl.instantiate}
    keeps [~n:_].

    Batching adapts to the workload: a one-job calibration batch seeds
    a per-worker EWMA of job cost, and every later claim is sized so one
    batch costs about 5 ms of wall time.  Batch boundaries therefore
    depend on timing, but the report lines never do.

    - [workers] (default 1): worker slots — one contiguous work range
      each.  [1] runs inline on the calling domain, no pool traffic.
      The {!Pool} caps actual domains at the machine's recommended
      count; requesting more slots than that is fine (their ranges are
      drained by stealing) and yields the same report.
    - [checkpoint]: keep a completion log at its [path]: the header is
      written once, then one flushed entry per finished job.  With
      [resume], the engine loads [path] first and only runs what is
      missing.  The file is then rewritten compacted — recovered entries
      first, torn lines and duplicates dropped — before new entries are
      appended, so a resumed file never carries a corrupt tail forward.
      A missing file is a fresh start, but an unreadable file, or one
      whose header disagrees with [name]/[seed]/[total] or whose entry
      for a job carries another [label], raises [Failure] before any job
      runs and leaves the file untouched — it belongs to a different
      campaign.
    - [sink]: receives one {!Rlfd_obs.Trace.Progress} event once at
      start and then (serialised) after each batch — [label = name],
      jobs done/total (the first event's [done_] counts the recovered
      jobs), throughput over the jobs this run executed (recovered ones
      excluded), an [eta_s] extrapolation and the p50/p95 of per-job
      wall times.  The live-telemetry face of the campaign; free when
      left at the default null sink.
    - [timeline]: a {!Rlfd_obs.Timeline} collector for the runtime
      observatory.  Each participant registers a [worker-<slot>]
      recorder and records, per batch, a [job-run] span with one [job]
      child span per job (tagged by job index), a [queue-wait] span
      (batch ready → checkpoint/telemetry lock held), and a [publish]
      span whose [checkpoint-append] child covers the fsynced entry
      writes; batch spans are tagged by the batch's first position in
      the pending-job order.  Pool lifecycle shows up as [unpark]/[park]
      events per participant, a [steal] span per cross-range claim
      (tagged by the victim slot), [pool-start] driver events per
      freshly spawned domain, and a [pool-wait] driver span for the
      end-of-run quiescence wait; those records are
      scheduling-dependent, so
      {!Rlfd_obs.Timeline.normalized_json} always excludes them.  Free
      when left at the default {!Rlfd_obs.Timeline.null}.

    If [f] raises, remaining batches are abandoned and the first
    exception is re-raised after the pool participants quiesce.  Raises
    [Invalid_argument] on [total < 0] or [workers < 1]. *)

val report_lines : 'r codec -> 'r report -> string list
(** One compact JSON object per job, sorted by index:
    [{"job": i, "label": "...", "result": ...}].  Deliberately excludes
    timing and worker information, so two runs of the same campaign at
    different worker counts — or one interrupted and resumed — produce
    byte-identical lines. *)

val run_spec :
  ?workers:int ->
  ?checkpoint:'r checkpoint ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?timeline:Rlfd_obs.Timeline.t ->
  seed:int ->
  Spec.t ->
  (rng:Rlfd_kernel.Rng.t -> metrics:Rlfd_obs.Metrics.t -> Spec.job -> 'r) ->
  'r report
(** {!run} over a {!Spec}: [total = Spec.size spec], labels from
    {!Spec.label}, and [f] receives the decoded {!Spec.job}.  [seed] is the
    campaign seed (stream derivation), distinct from the per-job [seed]
    coordinate the spec enumerates. *)

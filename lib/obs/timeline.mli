(** Per-domain span/event timelines for the runtime observatory.

    A {!t} is a collector; each participating domain registers a
    {!recorder} and then records without any synchronisation: a record is
    a handful of stores into preallocated ring buffers, timestamped with
    the monotonic clock ({!Profile.now}) and bracketed by
    [Gc.quick_stat] deltas.  When the ring fills, the {e oldest} records
    are overwritten and the loss is reported by an explicit {!dropped}
    counter — never silently.

    After the domains have joined, {!merge} folds the recorders into a
    deterministic {!artifact}: domains sorted by label, spans by start
    time, all timestamps relative to the collector's origin.  The
    artifact renders as an ASCII Gantt ({!pp_gantt}), a utilization
    breakdown ({!pp_utilization}), folded flamegraph stacks ({!folded}),
    or versioned JSON ({!to_json}; [{"timeline_version": 1, ...}]).

    Collection off is genuinely free: {!null}'s recorders are
    {!null_recorder}, whose every operation is a single capacity check
    ([cap = 0]) — same discipline as [Trace.null]. *)

type t
(** A timeline collector shared by the domains of one run. *)

type recorder
(** One domain's private record buffer.  Not thread-safe by design: a
    recorder must only ever be used by the domain that owns it. *)

val null : t
(** The disabled collector: {!recorder} on it returns {!null_recorder},
    {!merge} returns an empty artifact. *)

val is_null : t -> bool

val create : ?capacity:int -> label:string -> unit -> t
(** A live collector.  [capacity] (default 8192) is the per-recorder ring
    size, in records; raises [Invalid_argument] if < 1. *)

val recorder : t -> string -> recorder
(** [recorder t label] registers a fresh recorder under [label].  Safe to
    call from any domain (registration takes the collector's mutex once);
    the returned recorder must then stay on the calling domain. *)

val null_recorder : recorder
(** The no-op recorder; every operation on it returns immediately. *)

val is_null_recorder : recorder -> bool

val dropped : recorder -> int
(** Records overwritten so far ([max 0 (total - capacity)]). *)

(** {1 Recording} *)

val span : recorder -> ?tag:int -> string -> (unit -> 'a) -> 'a
(** [span r name f] runs [f] inside a span named [name]; nesting is
    well-formed by construction (the span closes when [f] returns or
    raises).  [tag] carries a small integer payload (shard index, worker
    id) kept distinct from the name so merged artifacts stay comparable
    across runs. *)

val enter : recorder -> ?tag:int -> string -> unit
(** Open a span explicitly.  Raises [Invalid_argument] past 64 levels. *)

val leave : recorder -> unit
(** Close the innermost open span.  Raises [Invalid_argument] if none. *)

val event : recorder -> ?tag:int -> string -> unit
(** A zero-duration point record. *)

val record_span : recorder -> ?tag:int -> string -> dur_s:float -> unit
(** Record an externally-measured duration as a span ending now — used to
    graft aggregate phase timings (e.g. the explorer's per-phase
    accumulators) onto the timeline.  GC counters are recorded as zero. *)

(** {1 Merging} *)

type span_rec = {
  sp_name : string;
  sp_tag : int;
  sp_depth : int;
  sp_t0 : float;  (** seconds since the collector's origin *)
  sp_dur : float;
  sp_minor : int;  (** minor collections during the span *)
  sp_major : int;
  sp_alloc_w : float;  (** words allocated during the span *)
  sp_promoted_w : float;
}

type event_rec = { ev_name : string; ev_tag : int; ev_t : float }

type domain_rec = {
  dom_label : string;
  dom_dropped : int;
  dom_first : float;
  dom_last : float;
  dom_spans : span_rec list;  (** sorted by (start, depth) *)
  dom_events : event_rec list;  (** sorted by time *)
}

type artifact = {
  a_label : string;
  a_wall_started_at : float;  (** calendar time, for the record only *)
  a_elapsed : float;
  a_dropped : int;
  a_domains : domain_rec list;  (** sorted by label *)
}

val merge : t -> artifact
(** Fold all registered recorders into one artifact.  Call only after the
    recording domains have joined (or stopped recording). *)

(** {1 Output} *)

val version : int
(** The artifact schema version ([timeline_version] in the JSON). *)

val to_json : artifact -> Json.t
(** The full versioned artifact, timestamps and GC deltas included. *)

val normalized_json : ?exclude:string list -> artifact -> Json.t
(** The determinism view: timing and GC numbers erased, spans pooled
    across domains and sorted by (name, tag, depth) — byte-identical
    across runs of the same deterministic workload regardless of domain
    interleaving, worker count or pool state.  The pool lifecycle
    records ([pool-start], [pool-wait], [steal], [park], [unpark]) are
    always dropped: their counts depend on pool warmth, core count and
    raw scheduling, never on the workload.  [exclude] drops further
    records by name (e.g. the
    engine's batch-level spans when comparing adaptive-batching runs,
    whose batch boundaries are timing-dependent). *)

type util = {
  u_window : float;  (** last - first activity on the domain *)
  u_busy : float;  (** sum of depth-0 span durations *)
  u_gc_est : float;
      (** estimated collection time inside spans: OCaml reports
          collection counts, not times, so this prices each minor
          collection at a once-per-process calibrated cost *)
  u_idle : float;  (** window - busy *)
  u_minor : int;
  u_major : int;
  u_by_name : (string * (int * float)) list;  (** name -> calls, total *)
}

val utilization : artifact -> (string * util) list
(** Per-domain busy/GC/idle decomposition, in domain-label order. *)

val pp_gantt : ?width:int -> Format.formatter -> artifact -> unit
(** One ASCII row per domain across the run window; cells are ['#']
    (mostly busy), ['+'], ['.'], or [' '] (idle), with busy/GC shares in
    the margin. *)

val pp_utilization : Format.formatter -> artifact -> unit

val folded : artifact -> string list
(** Folded-stack lines ([domain;outer;inner <microseconds>], exclusive
    times) for flamegraph tooling. *)

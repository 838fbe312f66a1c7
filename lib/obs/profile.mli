(** The monotonic clock every span in the repository is timed with.

    {!now} reads [clock_gettime(CLOCK_MONOTONIC)]: wall clocks step
    backwards under NTP, which would yield negative span durations.
    {!Timeline} timestamps its spans with it, and so do the campaign
    engine, the explorer and the benchmark harnesses.  {!wall} keeps the
    calendar clock available for artifacts that need a date.

    Spans themselves live in {!Timeline}; this module is only the clock.
    It keeps the [Profile] name because the [perfbench/] harness reads
    [Rlfd_obs.Profile.now]; the clock moves into {!Timeline} once that
    harness points there. *)

val monotonic_ns : unit -> int64
(** The raw monotonic clock, in nanoseconds since an arbitrary epoch
    (boot-ish).  Never decreases; only differences are meaningful. *)

val now : unit -> float
(** {!monotonic_ns} as seconds.  The timestamp source of every
    {!Timeline} span. *)

val wall : unit -> float
(** [Unix.gettimeofday]: seconds since the Unix epoch.  NOT monotonic —
    use only where an artifact needs a calendar date, never to subtract
    two readings. *)

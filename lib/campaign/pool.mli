(** The persistent domain pool behind every campaign in the process.

    {!Rlfd_campaign.Engine} used to spawn (and join) a fresh set of
    domains per [run] — measurably wasteful for grid sweeps that fire
    hundreds of small campaigns.  This module keeps the worker domains
    alive instead: the first parallel run spawns them, later runs wake
    them from a condition-variable park, and they only die with the
    process (the runtime exits cleanly with parked domains).

    One run at a time: the pool serialises concurrent top-level {!run}
    calls, and a {!run} issued from {i inside} a pool worker (a nested
    campaign) executes inline on the calling domain — nesting can never
    deadlock and never over-subscribes the machine.

    Sizing: helpers are capped at [recommended_workers () - 1] (the
    calling domain is always a participant), so requesting more workers
    than cores never oversubscribes — on a 1-core host every run is
    inline and pays nothing for "parallelism".  The cap can be forced
    with {!set_max_helpers} or the [RLFD_POOL_MAX_HELPERS] environment
    variable (useful in tests and CI smokes). *)

type stats = {
  participants : int;
      (** domains that actually entered the run (including the caller) *)
  spawned : int;  (** fresh domains created for this run (0 once warm) *)
  wait_s : float;
      (** caller's wait between finishing its own share and the last
          participant leaving *)
}

val recommended_workers : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — what
    [--jobs auto] resolves to. *)

val max_helpers : unit -> int
(** The current helper cap: {!set_max_helpers} override if set, else
    [RLFD_POOL_MAX_HELPERS], else [recommended_workers () - 1]; always
    within [0 .. 126]. *)

val set_max_helpers : int option -> unit
(** Force ([Some n]) or restore to automatic ([None]) the helper cap.
    Takes effect at the next {!run}; already-parked surplus helpers
    stay parked and harmless. *)

val helpers_alive : unit -> int
(** Helpers currently alive (parked or working). *)

val spawned_total : unit -> int
(** Domains ever spawned by the pool — a warm pool stops growing, which
    is exactly what the reuse tests assert. *)

val run :
  workers:int -> ?on_spawn:(int -> unit) -> (slot:int -> unit) -> stats
(** [run ~workers body] executes [body ~slot:0] on the calling domain
    and [body ~slot:i] ([1 <= i < p]) on [p - 1] pool helpers, where
    [p = min workers (max_helpers () + 1)], returning once every
    participant has left the body.

    Freshly spawned helpers pre-claim their slot, so they always join
    the run that spawned them; already-parked helpers race the run's
    lifetime and may contribute nothing — callers must treat slots
    above 0 as best-effort capacity, never as required executors (the
    engine's work-stealing drains any slot's share).

    [on_spawn slot] is called (in the caller's domain, before the
    spawn) for each fresh domain — the engine's timeline hook.

    [workers <= 1], a nested call from inside a pool worker, and a
    helper cap of 0 all run [body ~slot:0] inline: no spawn, no lock.

    If [body] raises anywhere, the first exception is re-raised in the
    caller after every participant has left. *)

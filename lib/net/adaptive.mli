(** Per-link adaptive timeout state (the EPFailureDetector rule).

    A fixed timeout is wrong on any link whose delay is not bounded from
    time 0: too short and it over-suspects, too long and it pays
    detection latency on every link for the jitter of the worst one.
    The adaptive rule keeps one timeout {e per monitored peer} —
    [delta.(i).(j)] in the TLA model — and bumps it by a fixed backoff
    every time a suspicion of that peer proves premature (a heartbeat or
    pong arrives from a currently-suspected process).  Jittery links buy
    themselves slack; quiet links keep their tight bound and their low
    detection latency.

    The table is a pure value held by the {!Monitor} core that
    {!Heartbeat} and {!Pingack} share, so both implementations adapt
    with exactly the same rule — the [--adaptive] axis of [fdsim qos] is
    one switch, not one per implementation. *)

open Rlfd_kernel

type t

val create : initial:int -> backoff:int option -> t
(** [backoff = None] is the fixed-timeout table: {!bump} is the
    identity.  Raises [Invalid_argument] if [initial < 1] or
    [backoff <= 0]. *)

val timeout : t -> Pid.t -> int
(** The current timeout for a peer ([initial] until first bumped). *)

val bump : t -> Pid.t -> t
(** Grow the peer's timeout by the backoff after a premature suspicion;
    identity for fixed tables. *)

(** Deterministic re-execution of recorded schedules, and their shrinking.

    A violation out of {!Explore} is a schedule — the exact sequence of
    (process, received message) choices that led to it.  {!execute} takes
    the Runner's step ({!Runner.step}) along that schedule, with the
    explorer's clock (one tick per step) and canonical encodings from
    {!Canon}, producing the decision set, the canonical final state, the
    detector-query log and the violation verdict; {!check_against}
    compares all of that byte-for-byte with what a flight-recorder
    artifact ({!Rlfd_obs.Recorder}) says happened; and {!shrink} is a
    delta-debugging minimizer that searches for the shortest subsequence
    still violating.

    The executor is {e total} in the schedule: entries it cannot honour —
    a process outside [1..n] or crashed, a reception whose message is not
    in flight — are dropped and counted rather than failing, and the
    surviving [executed] subsequence is reported back.  Replaying a
    faithful artifact drops nothing; the totality exists so the shrinker
    can probe arbitrary subsequences, whose message dependencies are
    usually broken. *)

open Rlfd_kernel
open Rlfd_fd

type schedule = (Pid.t * (Pid.t * string) option) list
(** One choice per step: the process, and for a reception the sender plus
    the canonical bytes of the message ([""] = match by sender alone) —
    the {!Explore.violation.schedule} shape. *)

type step_info = {
  pid : Pid.t;
  received : (Pid.t * int) option;  (** sender and buffer id *)
  sent : (Pid.t * int) list;
  outputs : string list;  (** rendered by [pp_output] *)
  seen : string;  (** rendered detector answer at this step *)
}

type 'o execution = {
  steps : step_info list;  (** the executed steps, in order *)
  outputs : (int * Pid.t * 'o) list;  (** (step index, emitter, value) *)
  violation : (int * string) option;
      (** first step index (post-step, as {!Explore.violation.at_step})
          at which [check] fired, with its reason *)
  decisions : string list;
      (** every decision state reached along this path: canonical multiset
          encodings of the outputs emitted so far, sorted, the empty
          multiset included — the single-path analogue of
          {!Explore.report.decision_states} *)
  final : string;  (** {!Canon.assemble} bytes of the end configuration *)
  dropped : int;  (** schedule entries that could not be honoured *)
  executed : schedule;
      (** the entries actually executed, each reception filled in with the
          resolved message's canonical bytes — self-contained and
          re-executable *)
}

val execute :
  ?pp_output:('o -> string) ->
  ?pp_seen:('d -> string) ->
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  check:((Pid.t * 'o) list -> string option) ->
  schedule:schedule ->
  ('s, 'm, 'd, 'o) Model.t ->
  'o execution
(** Run the schedule from the initial configuration.  Deterministic: two
    calls with equal arguments return structurally equal executions —
    the property [fdsim replay] rests on.  A prescribed reception resolves
    to the {e oldest} in-flight message from that sender with matching
    canonical bytes, which is exactly the message the explorer delivered
    (ids are allocated in the same order). *)

val to_artifact : scope:Rlfd_obs.Json.t -> 'o execution -> Rlfd_obs.Recorder.t
(** Package an execution as an [Explore]-kind flight-recorder artifact:
    the [executed] schedule as choices (payloads hex-encoded), the query
    log, and the outcome (violation, decision set, canonical final
    state).  [scope] is whatever the caller needs to rebuild the system;
    the CLI stores n, seed, detector, algorithm, crashes and bounds. *)

val schedule_of_artifact : Rlfd_obs.Recorder.t -> (schedule, string) result
(** The choices of an artifact back as an executable schedule ([Error] on
    malformed hex, or on a process or sender index below 1). *)

val runner_artifact :
  scope:Rlfd_obs.Json.t ->
  ?pp_output:('o -> string) ->
  queries:(int * int * string) list ->
  ('s, 'o) Runner.result ->
  Rlfd_obs.Recorder.t
(** Package a complete {!Runner} execution as a [Run]-kind artifact: one
    choice per event carrying its tick and exact received buffer id (ids
    are allocation-deterministic, so a re-run under {!Scheduler.replay}
    delivers the very same messages), the detector-query log (from
    {!Rlfd_fd.Detector.taped}), and the outcome — canonical decision
    multiset and marshalled final states.  Replaying and re-packaging a
    faithful artifact reproduces it byte-for-byte, which is how [fdsim
    replay] verifies run recordings. *)

val replay_entries :
  Rlfd_obs.Recorder.t -> ((int * Pid.t * Buffer.id option) list, string) result
(** The choices of a [Run]-kind artifact in {!Scheduler.replay} form
    (choices without a tick — an [Explore] artifact's — are skipped);
    [Error] on a process or sender index below 1. *)

val check_against : Rlfd_obs.Recorder.t -> 'o execution -> string list
(** Byte-for-byte verification of a replay against the recording: decision
    set, canonical final state, violation reason and step, detector-query
    log, output log.  [[]] means the replay reproduced the recorded run
    exactly; each mismatch is one human-readable line. *)

(** {1 Schedule shrinking} *)

type 'o shrunk = {
  schedule : schedule;  (** the shortest violating schedule found *)
  execution : 'o execution;  (** its execution (still violating) *)
  rounds : int;  (** ddmin iterations *)
  candidates : int;  (** schedules executed while searching *)
}

val shrink :
  ?pp_output:('o -> string) ->
  ?pp_seen:('d -> string) ->
  pattern:Pattern.t ->
  detector:'d Detector.t ->
  check:((Pid.t * 'o) list -> string option) ->
  schedule:schedule ->
  ('s, 'm, 'd, 'o) Model.t ->
  'o shrunk
(** Delta-debugging (ddmin) minimization: repeatedly drop chunks of the
    schedule, halving chunk granularity on failure, keeping any strictly
    shorter subsequence that still violates (any reason — the minimized
    counterexample may fail faster than the original, which is the
    point).  The input is normalized to its [executed] form first, and
    every accepted candidate is re-normalized, so the result drops
    nothing when re-executed.  The result is minimal in the sense that
    removing any single remaining step breaks the violation.  Raises
    [Invalid_argument] if the input schedule does not violate. *)

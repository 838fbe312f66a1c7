(** Flight-recorder artifacts: versioned, self-contained counterexamples.

    A violation reported by the explorer, or any single simulator run, can
    be captured as one JSONL file that carries everything needed to
    re-execute it deterministically somewhere else: the scope
    configuration, the full decision sequence of scheduler choices, the
    failure-detector queries and their answers, and the recorded outcome
    (violation flag, canonical decision multiset and final-state encoding
    from {!Rlfd_sim.Canon}).  [fdsim replay] re-runs the schedule and
    verifies the outcome byte-for-byte; [fdsim shrink] minimizes the
    schedule while preserving the violation; [fdsim render] draws the
    spacetime diagram.

    This module is only the codec — the artifact format and its file IO.
    It deliberately knows nothing about simulator semantics (the [scope]
    is an opaque {!Json.t}); {!Rlfd_sim.Replay} owns re-execution and
    verification, and [bin/fdsim] owns rebuilding a scope from the JSON.

    Canonical encodings are [Marshal] bytes, which are binary — they are
    hex-encoded ({!hex_encode}) wherever they appear in the JSON. *)

type kind =
  | Explore  (** a violation schedule out of {!Rlfd_sim.Explore.run} *)
  | Run  (** one complete {!Rlfd_sim.Runner.run} execution *)

type receive = {
  src : int;  (** sender pid *)
  msg : int option;
      (** exact buffer id when known ([Run] artifacts); [None] when the
          message is identified by content ([Explore] artifacts) *)
  payload : string;
      (** hex of the canonical [(src, dst, payload)] encoding; [""] when
          only [src] identifies the message *)
}

type choice = {
  at : int option;
      (** clock tick for [Run] artifacts; [None] for [Explore] ones,
          where position in the sequence is the step number *)
  pid : int;  (** the process scheduled to take this step *)
  recv : receive option;  (** [None] = the null message lambda *)
}

type query = {
  step : int;
  pid : int;
  seen : string;  (** rendered failure-detector answer *)
}

type outcome = {
  violation : string option;  (** reason, or [None] for a clean run *)
  at_step : int;  (** step/tick the violation fired; [-1] if none *)
  decisions : string;  (** hex of the canonical decision multiset *)
  final : string;  (** hex of the canonical final-state encoding *)
  outputs : (int * int * string) list;  (** (time, pid, rendered value) *)
}

type t = {
  kind : kind;
  scope : Json.t;
      (** enough configuration to rebuild the system: n, seed, detector,
          algorithm, crashes, bounds — written and interpreted by the CLI *)
  choices : choice list;
  queries : query list;
  outcome : outcome;
}

(** {1 Hex}

    Helpers for embedding binary canonical encodings in JSON. *)

val hex_encode : string -> string

val hex_decode : string -> (string, string) result

(** {1 Codec}

    Line 1 is the header [{"flight":"rlfd","schema_version":N,...}]; then
    one line per choice in schedule order, one per query in emission
    order, and a final outcome line.  {!of_lines} inverts {!to_lines} and
    validates the magic, version and record shapes. *)

val to_lines : t -> string list

val of_lines : string list -> (t, string) result

val save : string -> t -> unit
(** Write the artifact to [path], one record per line. *)

val load : string -> (t, string) result
(** Read and decode; IO problems (a missing file, a directory) come back
    as [Error] too. *)

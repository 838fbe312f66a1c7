(** Common vocabulary for the broadcast problems (paper, Sections 1.1 and 5;
    Hadzilacos–Toueg 1994).

    A broadcast {e item} is a payload tagged with its origin process and a
    per-origin sequence number, which gives every broadcast message a unique
    identity without hashing payloads. *)

open Rlfd_kernel

type 'v item = { origin : Pid.t; seq : int; data : 'v }

val item : origin:Pid.t -> seq:int -> 'v -> 'v item

val same_id : 'v item -> 'v item -> bool
(** Same [(origin, seq)] identity. *)

val sort_batch : 'v item list -> 'v item list
(** Canonical deterministic order of a batch: ascending [(origin, seq)],
    duplicates (by identity) removed. *)

val workload : (Pid.t -> 'v list) -> Pid.t -> 'v item list
(** Tag each process's payload list with its origin and sequence numbers:
    the standard way examples and tests describe who broadcasts what. *)

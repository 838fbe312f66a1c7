(** Executable problem specifications.

    Each checker inspects a completed run and returns
    {!Rlfd_fd.Classes.result}, so test output names the violated clause.
    Consensus checkers expect runs whose output type is the decided value;
    broadcast checkers expect {!Broadcast.item} outputs. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

(** {1 Consensus (paper, Section 4)} *)

val termination : ('s, 'v) Runner.result -> Classes.result
(** Every correct process decides. *)

val agreement : equal:('v -> 'v -> bool) -> ('s, 'v) Runner.result -> Classes.result
(** No two {e correct} processes decide differently (the correct-restricted
    clause of Section 6.2). *)

val uniform_agreement :
  equal:('v -> 'v -> bool) -> ('s, 'v) Runner.result -> Classes.result
(** No two processes decide differently, faulty deciders included (the
    paper's default notion). *)

val validity :
  proposals:(Pid.t -> 'v) -> equal:('v -> 'v -> bool) -> ('s, 'v) Runner.result ->
  Classes.result
(** Every decided value was proposed by some process. *)

val check_consensus :
  uniform:bool ->
  proposals:(Pid.t -> 'v) ->
  equal:('v -> 'v -> bool) ->
  ('s, 'v) Runner.result ->
  (string * Classes.result) list
(** The full specification: termination, integrity (no process decides
    more than once), validity, and uniform or correct-restricted
    agreement. *)

(** {1 Terminating reliable broadcast (paper, Section 5)}

    Outputs are ['v option]: [Some v] a real delivery, [None] the [nil]
    delivery. *)

val trb_check :
  sender:Pid.t ->
  value:'v ->
  equal:('v -> 'v -> bool) ->
  ('s, 'v option) Runner.result ->
  (string * Classes.result) list
(** Termination, agreement (all deciders deliver the same thing), validity
    (a correct sender's value is the only possible delivery) and integrity
    ([nil] only if the sender is faulty; a value delivery only of the
    sender's value). *)

(** {1 Atomic / reliable broadcast (paper, Section 1.1)} *)

val broadcast_agreement :
  ('s, 'v Broadcast.item) Runner.result -> Classes.result
(** All correct processes deliver the same set of items. *)

val broadcast_validity :
  to_broadcast:(Pid.t -> 'v list) ->
  ('s, 'v Broadcast.item) Runner.result ->
  Classes.result
(** Every item broadcast by a correct process is delivered by every correct
    process. *)

val broadcast_no_creation :
  to_broadcast:(Pid.t -> 'v list) ->
  equal:('v -> 'v -> bool) ->
  ('s, 'v Broadcast.item) Runner.result ->
  Classes.result
(** Every delivered item was actually broadcast, with its original
    payload. *)

val broadcast_no_duplication :
  ('s, 'v Broadcast.item) Runner.result -> Classes.result
(** No process delivers the same item identity twice. *)

val total_order : ('s, 'v Broadcast.item) Runner.result -> Classes.result
(** Any two delivery sequences are prefix-compatible (one is a prefix of the
    other), faulty processes included — the uniform total order of atomic
    broadcast. *)

val check_abcast :
  to_broadcast:(Pid.t -> 'v list) ->
  equal:('v -> 'v -> bool) ->
  ('s, 'v Broadcast.item) Runner.result ->
  (string * Classes.result) list

(** FIFO reliable broadcast (Hadzilacos–Toueg taxonomy, the paper's [11]).

    Reliable broadcast plus FIFO order: messages from one sender are
    delivered in the order they were broadcast.  Implemented as flooding
    dissemination with per-origin sequencing at delivery: an item
    [(origin, seq)] waits until [(origin, seq - 1)] has been delivered.

    No failure detector is needed (the detector type parameter is free). *)

open Rlfd_kernel
open Rlfd_sim

type 'v msg

type 'v state

val pending_count : 'v state -> int
(** Items received but still held back by a sequence gap. *)

val automaton :
  to_broadcast:(Pid.t -> 'v list) ->
  ('v state, 'v msg, 'd, 'v Broadcast.item) Model.t

val fifo_order : ('s, 'v Broadcast.item) Runner.result -> Rlfd_fd.Classes.result
(** Checker: every process's deliveries are, per origin, in gap-free
    ascending sequence order. *)

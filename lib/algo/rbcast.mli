(** Reliable broadcast (crash model, no failure detector needed).

    Classic flooding: deliver a message on first receipt and relay it to
    everyone.  Guarantees validity (a correct broadcaster's messages are
    delivered by all correct processes), agreement (if any correct process
    delivers, all correct processes deliver) and integrity (each identity
    delivered at most once, only if broadcast).  It does {e not} guarantee
    uniform agreement: a process may deliver and crash before relaying to
    anyone — see {!Urbcast} for the uniform variant.

    The detector type is a free parameter: the algorithm never queries it. *)

open Rlfd_kernel
open Rlfd_sim

type 'v msg

type 'v state

val automaton :
  to_broadcast:(Pid.t -> 'v list) ->
  ('v state, 'v msg, 'd, 'v Broadcast.item) Model.t
(** Each process floods its own payloads, one per step; the output is each
    delivery. *)

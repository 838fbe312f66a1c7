(** Uniform reliable broadcast with a Perfect failure detector, tolerating
    any number of crashes.

    Uniformity strengthens agreement to cover faulty processes: if {e any}
    process (correct or not) delivers a message, every correct process
    delivers it.  With unbounded failures the classical majority-ack
    implementation is unavailable, so the algorithm delivers an item only
    after receiving an acknowledgement from {e every process it does not
    suspect} — safe precisely because a Perfect detector's suspicions are
    accurate.  This mirrors the paper's broader point: in the unbounded
    environment, uniformity is what forces Perfect-grade information. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type 'v msg

type 'v state

val automaton :
  to_broadcast:(Pid.t -> 'v list) ->
  ('v state, 'v msg, Detector.suspicions, 'v Broadcast.item) Model.t

(** Atomic broadcast from repeated consensus (Chandra–Toueg 1996, Section 4;
    the equivalence the paper invokes in Section 1.1).

    Payloads are disseminated by flooding; delivery order is decided by an
    unbounded sequence of consensus instances, each agreeing on the next
    {e batch} of items.  Every process deterministically delivers each
    decided batch in canonical order, so all processes deliver the same
    totally ordered sequence — the substrate of the replicated key-value
    store example.

    The consensus sub-protocol is {!Ct_strong}, so with a Perfect (or
    realistic Strong) detector the construction tolerates any number of
    crashes — which is exactly why, in the paper's environment, atomic
    broadcast inherits consensus's need for [P]. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type 'v msg

type 'v state

val instances_decided : 'v state -> int

val automaton :
  to_broadcast:(Pid.t -> 'v list) ->
  ('v state, 'v msg, Detector.suspicions, 'v Broadcast.item) Model.t
(** The output stream is the totally ordered deliveries. *)

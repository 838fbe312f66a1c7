(** The message buffer (paper, Section 2.3).

    A multiset of messages in transit.  Each message gets a unique,
    monotonically increasing identifier when added; identifiers give the
    deterministic "oldest first" order that the fair scheduler uses to make
    every message to a correct process eventually received.  The one
    buffer of the layer: {!Runner.step} takes its messages from it and puts
    its sends into it, whether {!Runner.run} or {!Replay.execute} drives
    the step.

    The buffer keeps one newest-first queue per destination.  {!add} is
    O(1); {!pending} reverses one process's queue; {!remove} scans the
    queues for the id without allocating, then rebuilds only the queue
    that holds it; {!iter} merges the queues in id order.  A short
    consensus run keeps a few messages per queue, so each step's buffer
    work is a few list cells, whatever the other queues hold. *)

open Rlfd_kernel

type 'a t
(** A mutable buffer of in-transit messages of type ['a]. *)

type id = int
(** Message identifiers: unique within a buffer, assigned in increasing
    order of {!add} and {!skip} together. *)

val create : dst:('a -> Pid.t) -> 'a t
(** An empty buffer whose messages go to [dst m]; identifiers start at
    0. *)

val add : 'a t -> 'a -> id
(** Put a message in transit and return its fresh identifier. *)

val skip : 'a t -> id
(** Draw the next identifier for a message that is never received, and
    store nothing: {!Runner.step} sends to a process already crashed this
    way.  Later identifiers continue after it, so the ids of a run do not
    depend on which of its messages were stored. *)

val remove : 'a t -> id -> 'a option
(** Removes and returns the message; [None] if the id is absent (already
    consumed). *)

val pending : 'a t -> Pid.t -> (id * 'a) list
(** Messages currently destined to the process, oldest first. *)

val iter : 'a t -> (id -> 'a -> unit) -> unit
(** Every message in transit, in increasing id order. *)

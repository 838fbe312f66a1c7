(** Imperative priority queue, used as the event list of the timed
    network simulator.

    Elements pop in (priority, insertion) order: the smallest integer
    priority first, and equal priorities in the order they were added,
    which keeps the discrete-event simulation deterministic.

    The queue keeps one FIFO bucket per distinct pending priority, in a
    balanced map ordered by priority. {!add} and {!pop} cost O(log B) in
    the number B of distinct pending priorities, not in the number of
    pending elements. The simulator's priorities are timestamps, and its
    link delays and timer periods bound B: all-to-all heartbeat on the
    default synchronous link keeps 12 timestamps pending while the
    pending events reach 160,000 at n = 400; a partially synchronous
    link keeps about 70, an asynchronous one a few hundred. *)

type 'a t

val create : unit -> 'a t
(** An empty queue. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of queued elements. *)

val add : 'a t -> prio:int -> 'a -> unit
(** [add t ~prio x] enqueues [x] behind every element already queued at
    [prio]. Any priority is accepted, also one below the last popped. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum-priority element, the oldest among
    equal priorities; [None] when empty. *)

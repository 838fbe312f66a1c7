(** Causal reliable broadcast (Hadzilacos–Toueg taxonomy, the paper's [11]).

    Reliable broadcast plus causal order: if the broadcast of [m1]
    causally precedes the broadcast of [m2], every process delivers [m1]
    before [m2].  The classic vector-of-counters algorithm: each message
    carries, per origin, how many of that origin's messages the sender had
    delivered when it broadcast; a receiver holds a message back until its
    own delivered counts dominate that vector. *)

open Rlfd_kernel
open Rlfd_sim

type 'v msg

type 'v state

(** A delivery together with its causal dependency vector (the message's
    carried counters), which is what the order checker consumes. *)
type 'v delivery = { item : 'v Broadcast.item; deps : int Pid.Map.t }

val automaton :
  to_broadcast:(Pid.t -> 'v list) ->
  ('v state, 'v msg, 'd, 'v delivery) Model.t

val precedes : 'v delivery -> 'v delivery -> bool
(** [precedes d1 d2]: the broadcast of [d1] is in the causal past of the
    broadcast of [d2] (computed from origins, sequence numbers and carried
    vectors). *)

val causal_order : ('s, 'v delivery) Runner.result -> Rlfd_fd.Classes.result
(** Checker: no process delivers [m2] before a causally preceding [m1]. *)

val causal_agreement : ('s, 'v delivery) Runner.result -> Rlfd_fd.Classes.result
(** Checker: all correct processes deliver the same set of items. *)

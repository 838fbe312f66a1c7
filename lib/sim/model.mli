(** The asynchronous computation model (paper, Section 2.3): the FLP model
    augmented with failure detectors.

    An algorithm is a collection of [n] deterministic automata, one per
    process.  In each step a process (1) receives a single message from the
    buffer or the null message, (2) queries its failure detector module, and
    (3) changes state and sends messages, as a function of its automaton,
    its state, the received message and the detector value seen.

    Two benign generalisations of the paper's step (documented so results
    can be compared): a step may send to several destinations at once (the
    paper's single-send step can express this as a sequence of steps), and a
    step may emit externally visible {e outputs} (decide, deliver), which the
    paper models as designated state changes. *)

open Rlfd_kernel

(** A message in transit. *)
type 'm envelope = { src : Pid.t; dst : Pid.t; payload : 'm }

(** The result of one step. *)
type ('s, 'm, 'o) effects = {
  state : 's;
  sends : (Pid.t * 'm) list; (** destination, payload *)
  outputs : 'o list; (** decisions / deliveries performed in this step *)
}

val no_effects : 's -> ('s, 'm, 'o) effects
(** Keep this state, send nothing, output nothing. *)

val send_all : n:int -> ?but:Pid.t -> 'm -> (Pid.t * 'm) list
(** Destination list for a broadcast (optionally excluding one process —
    typically the sender, when self-delivery is handled in-state). *)

(** A (uniform) algorithm: the same automaton text at every process,
    parameterised by the process identity. *)
type ('s, 'm, 'd, 'o) t = {
  name : string;
  initial : n:int -> Pid.t -> 's;
  step :
    n:int -> self:Pid.t -> 's -> 'm envelope option -> 'd -> ('s, 'm, 'o) effects;
}

val make :
  name:string ->
  initial:(n:int -> Pid.t -> 's) ->
  step:(n:int -> self:Pid.t -> 's -> 'm envelope option -> 'd -> ('s, 'm, 'o) effects) ->
  ('s, 'm, 'd, 'o) t
(** Smart constructor for {!t}. *)

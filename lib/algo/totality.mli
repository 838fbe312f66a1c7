(** The totality checker (paper, Lemma 4.1).

    An algorithm is {e total} when the causal chain of every decision event
    at time [t] contains a message sent by every process that has not
    crashed by [t].  Lemma 4.1: in the unbounded-failure environment, every
    consensus algorithm using a {e realistic} failure detector is total.

    The run executor tags every event with its heard-from set (the
    processes contributing to its causal chain), so totality is a pure scan
    of the recorded events.  Experiment EXP-1 runs this over the algorithm
    portfolio: the realistic-detector consensus runs must pass; the
    Marabout and clairvoyant-S runs must produce witnesses, and the
    [P<]-based non-uniform algorithm fails it too, consistently with the
    lemma (it does not solve {e uniform} consensus). *)

open Rlfd_kernel
open Rlfd_sim

type violation = {
  time : Time.t;
  pid : Pid.t;
  missing : Pid.Set.t; (** alive at [time] yet absent from the causal chain *)
}

val pp_violation : Format.formatter -> violation -> unit

val check : ('s, 'o) Runner.result -> violation list
(** Scans every event that emits an output, reading only those steps
    ({!Rlfd_sim.Runner.output_events}).  Empty result = the run is
    total. *)

val is_total : ('s, 'o) Runner.result -> bool

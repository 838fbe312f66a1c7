(** Environments (paper, Section 2.1).

    An environment is a set of failure patterns — the crashes a system is
    designed to survive.  The paper's results live in the environment
    containing {e all} patterns ("we do not bound the number of processes
    that can crash"); the classical [◊S]-consensus result needs the smaller
    majority-correct environment.  Making environments first-class lets
    tests and experiments state exactly which environment a claim is
    checked in, and lets the generators prove they stay inside it. *)

open Rlfd_kernel

type t

val name : t -> string

val contains : t -> Pattern.t -> bool

val sample : t -> n:int -> horizon:Time.t -> Rng.t -> Pattern.t
(** A pattern of the environment.  Generated patterns always satisfy
    [contains]; sampling retries internally, and raises [Failure] if the
    environment admits no pattern at this [n] (e.g. [f_bounded 0] excludes
    everything but failure-free, which is still fine, but [majority_correct]
    with [n = 1] is trivially satisfiable — failures only arise from
    contradictory custom environments). *)

val unbounded : t
(** Every pattern: the paper's environment.  Note: by convention the
    samplers keep at least one correct process, matching the model's
    requirement that correct processes take infinitely many steps. *)

val majority_correct : t
(** Patterns where fewer than [n/2 + 1] processes crash: where [◊S]
    suffices for consensus (paper, Section 1.2). *)

val f_bounded : int -> t
(** At most [f] crashes. *)

val failure_free : t

val custom :
  name:string ->
  contains:(Pattern.t -> bool) ->
  base:Pattern.Family.t list ->
  t
(** An environment accepting what [contains] accepts, sampled by filtering
    the given families. *)

(** The Chandra–Toueg weak-to-strong completeness transformation
    (CT96, Section 4 — background machinery for the paper's formalism).

    Given any detector [D] with only {e weak} completeness (every crash is
    eventually suspected by {e some} correct process), the transformation
    makes every correct process suspect it: each process periodically
    broadcasts its current [D] output; on receiving a suspicion set [S]
    from [q], a process updates

      [output := (output ∪ S) \ {q}]

    — adopt the gossip, but stop suspecting the gossiper, who is evidently
    alive.  The emulated detector gains strong completeness; accuracy
    properties degrade gracefully: perpetual {e weak} accuracy survives (a
    process nobody ever suspects is never gossiped), and accuracy of the
    {e past-crash} kind survives trivially when the input has strong
    accuracy, modulo transient false suspicions that the \ {q} rule
    retracts.

    Experimentally (see [test_reduction.ml]): fed with
    {!Rlfd_fd.Ev_strong.weakly_complete} — whose raw history fails strong
    completeness — the emulated history passes it, while keeping eventual
    strong accuracy. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type state

type msg

val automaton :
  gossip_every:int -> (state, msg, Detector.suspicions, Pid.Set.t) Model.t
(** The input detector is the one the {!Runner} is given; each process
    reads its module at every step, gossips the raw output every
    [gossip_every] own-steps, and emits the emulated output whenever it
    changes.  Raises [Invalid_argument] unless [gossip_every >= 1]. *)

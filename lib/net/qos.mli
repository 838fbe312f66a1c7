(** Quality-of-service analysis of implemented failure detectors
    (after Chen, Toueg and Aguilera's QoS metrics).

    Consumes a {!Netsim} run whose outputs are suspicion-set changes (as
    emitted by {!Heartbeat.node}) and reports, against the injected failure
    pattern:

    - {e detection latency}: per (crashed process, correct observer), the
      delay between the crash and the start of the observer's final,
      permanent suspicion of it;
    - {e accuracy}: the number of false-suspicion episodes (an alive
      process suspected) and their durations;
    - whether the run was {e Perfect-grade} (complete and never wrong) —
      the property EXP-12 shows holding on synchronous links and failing
      beyond them. *)

open Rlfd_kernel

type report = {
  detection_latencies : float list;
  undetected : int; (** (crashed, correct observer) pairs never detected *)
  false_episodes : int;
  partition_episodes : int;
      (** the subset of [false_episodes] that started while a partition
          separated the pair — blamed on the cut, not the timeout *)
  mistake_durations : float list;
  messages : int;
  complete : bool; (** every crashed process permanently suspected by every correct observer *)
  accurate : bool; (** no false-suspicion episode *)
}

val analyze : ?partitions:Partition.t list -> ('s, Pid.Set.t) Netsim.result -> report
(** [partitions] (default [[]]) must be the schedule the run was simulated
    under; an episode is classified partition-induced iff
    {!Partition.separated} holds for the (observer, subject) pair at the
    episode's start time — the exact predicate {!Netsim} used to drop the
    messages, so the two readings cannot disagree. *)

val perfect_grade : report -> bool
(** [complete && accurate]. *)

val observe : Rlfd_obs.Metrics.t -> report -> unit
(** Push the report into a metrics registry: the [detection_latency] and
    [mistake_duration] histograms (detection-latency samples exist {e only}
    for crashed processes, by construction of {!analyze}), the
    [false_suspicion_episodes] / [partition_suspicion_episodes] /
    [undetected_crash_pairs] counters and the [undetected_fraction]
    gauge: [undetected / (detected + undetected)] over (crashed subject,
    correct observer) pairs, 0 when nothing crashed — what the latency
    histogram alone loses, since it only holds the pairs that {e were}
    detected. *)

(** {1 Timeline reconstruction} *)

val suspicion_intervals :
  ('s, Pid.Set.t) Netsim.result -> observer:Pid.t -> subject:Pid.t ->
  (Netsim.time * Netsim.time option) list
(** Maximal intervals during which [observer] suspected [subject];
    [None] end = still suspected at the end of the run. *)

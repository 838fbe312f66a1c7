(** Network partitions: a scenario axis splitting the link set.

    A partition isolates an {e island} of processes from the rest of the
    population for an interval of network time: any message sent across
    the cut while the partition is active is dropped (both directions);
    delivery within either side is untouched.  At [heals] the cut
    disappears and messages flow again — the classic
    partition-then-heal scenario every production failure detector must
    survive without permanent false suspicions.

    Partitions are pure schedule data, interpreted in two places that
    must agree: {!Rlfd_net.Netsim} drops cross-cut sends, and the QoS
    layer ({!Qos.analyze} and {!Qos_stream}) uses the same
    {!separated} predicate to classify partition-induced suspicions and
    drops.  Membership is judged at {e send} time, so the two readings
    cannot diverge on messages in flight when the cut forms or heals. *)

open Rlfd_kernel

type t = { starts : int; heals : int; island : Pid.Set.t }

val make : starts:int -> heals:int -> island:Pid.Set.t -> t
(** Active over [[starts, heals)].  Raises [Invalid_argument] if
    [starts < 0], [heals <= starts] or the island is empty. *)

val island_of_size : n:int -> k:int -> Pid.Set.t
(** The first [k] processes — how the CLI's [--partition START:HEAL:K]
    names an island.  Raises [Invalid_argument] unless [1 <= k < n]. *)

val separated : t list -> Pid.t -> Pid.t -> at:int -> bool
(** Some active partition of the schedule separates the pair at [at] —
    the single predicate shared by the simulator (drop decision) and the
    QoS layer (classification). *)

val schedule_to_json : t list -> Rlfd_obs.Json.t
(** The list as a JSON array — the self-describing scope-header field. *)

val describe : t list -> string
(** Compact one-line rendering, ["-"] for the empty schedule. *)

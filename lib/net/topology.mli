(** Monitoring-assignment topologies: who pings whom.

    The flat all-to-all assignment every textbook heartbeat detector uses
    costs each process O(n) monitoring work and the system O(n^2)
    bandwidth — the reason honest experiments stall near n=1,000.  This
    module provides the assignment as a first-class value so the detector
    implementations ({!Heartbeat}, {!Pingack}, through their shared
    {!Monitor} core) are generic over it:

    - {!All_to_all}: every process monitors every other — the paper's
      implicit assumption, exact but O(n) per-node bandwidth;
    - {!Ring}: each process monitors its [k] clockwise successors —
      O(1) per-node bandwidth, O(n) dissemination diameter;
    - {!Hierarchical}: the hypercube testing graph of Duarte et al.'s
      system-level diagnosis model — process [i] (0-based) monitors
      [i lxor (1 lsl s)] for every [s] with [2^s < n], so each process
      monitors at most [ceil (log2 n)] peers and any suspicion travels to
      every process in at most [ceil (log2 n)] hops.

    A topology that is not {!All_to_all} leaves most (observer, subject)
    pairs without a direct monitoring edge, so the detector must
    {e disseminate} suspicions along the monitoring graph ({!Dissem}) to
    stay complete; {!needs_dissemination} says when.  Both non-trivial
    graphs are connected when read undirected (for the hypercube, clearing
    the highest set bit of any [i > 0] yields a watched peer [< i]), which
    is what makes flooding along monitoring edges reach everyone. *)

open Rlfd_kernel

type t =
  | All_to_all
  | Ring of { k : int }  (** monitor the [k] clockwise successors *)
  | Hierarchical  (** Duarte et al. hypercube testing graph *)

val all_to_all : t

val ring : k:int -> t
(** Raises [Invalid_argument] unless [k >= 1]. *)

val hierarchical : t

val equal : t -> t -> bool

val name : t -> string
(** Short stable token: ["all"], ["ring<k>"], ["hier"] — used in campaign
    axis values and JSON scope headers. *)

val of_string : string -> (t, string) result
(** Inverse of {!name}; also accepts ["all-to-all"], ["ring"] (= [ring:2]),
    ["ring:<k>"] and ["hierarchical"]. *)

val watches : t -> n:int -> Pid.t -> Pid.t list
(** The peers this process monitors (sorted, self-free, duplicate-free). *)

val watchers : t -> n:int -> Pid.t -> Pid.t list
(** The peers monitoring this process — the inverse of {!watches}.  For
    {!Hierarchical} the graph is symmetric, so [watchers = watches]. *)

val neighbours : t -> n:int -> Pid.t -> Pid.t list
(** [watches ∪ watchers] — the processes sharing a monitoring edge with
    this one, the fan-out of event-driven suspicion dissemination. *)

val degree : t -> n:int -> int
(** The maximum out-degree over all processes: [n - 1], [min k (n - 1)]
    and [ceil (log2 n)] respectively. *)

val needs_dissemination : t -> bool
(** [false] only for {!All_to_all}, where every observer monitors every
    subject directly. *)

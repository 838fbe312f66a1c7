(** Mergeable fixed-memory quantile sketch (a log-bucketed histogram).

    Samples are folded into geometric buckets [[gamma^k, gamma^(k+1))]
    keyed by [k = floor (log x / log gamma)], so memory is bounded by the
    {e dynamic range} of the data — not its volume — and any quantile is
    answered to within {!relative_error} of the true nearest-rank value.
    Exact [count]/[sum]/[min]/[max] ride along, so means and extremes are
    not approximated at all.

    [merge] is a bucket-wise add: commutative, associative, and {e exact}
    — merging the sketches of two sample streams yields the very sketch
    of their concatenation.  That is what lets the streaming QoS
    observatory run an n=1,000 campaign without retaining a single raw
    sample. *)

type t

val create : unit -> t

val copy : t -> t

val add : t -> float -> unit
(** O(1).  Values of any sign; magnitudes below an internal epsilon
    (1e-9) land in a dedicated zero bucket. *)

val merge : into:t -> t -> unit
(** Bucket-wise add; the source is not modified.
    [merge ~into:(sketch xs) (sketch ys)] equals [sketch (xs @ ys)]. *)

val is_empty : t -> bool

val count : t -> int

val sum : t -> float

val min_value : t -> float
(** Exact observed minimum.  Raises [Invalid_argument] when empty. *)

val max_value : t -> float
(** Exact observed maximum.  Raises [Invalid_argument] when empty. *)

val relative_error : float
(** The guaranteed quantile accuracy: {!percentile} is within this
    fraction of the true nearest-rank value (about 1%). *)

val percentile : t -> float -> float
(** [percentile s q], [q] in [\[0,1\]]: the representative (geometric
    midpoint, clamped to [\[min, max\]]) of the bucket holding the
    nearest-rank [q]-quantile — the same rank rule as
    {!Rlfd_kernel.Stats.percentile}.  Raises [Invalid_argument] when
    empty or [q] is out of range. *)

val percentile_bounds : t -> float -> float * float
(** [(lo, hi)] such that the exact nearest-rank [q]-quantile of the
    observed samples lies in [\[lo, hi\]]: the holding bucket's bounds
    intersected with [\[min, max\]]. *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lo, hi, count)] rows in ascending value
    order (negative buckets first, then the zero bucket as [(0., 0., n)],
    then positive ones). *)

val equal : t -> t -> bool
(** Same count, extremes and bucket contents (exactly), same sum up to
    float-addition rounding — sums accumulate in insertion order, so two
    sketches of the same multiset may differ in the last ulp. *)

val to_json : t -> Json.t
(** [{"count": 0}] when empty; otherwise count/sum/mean/min/max, the
    p50/p95/p99 representatives, their [[lo, hi]] bounds
    ([p50_bounds] ...), and the [buckets] rows of {!buckets}. *)

val pp : Format.formatter -> t -> unit
(** One-line [n/mean/p50/p95/p99/max] summary, shaped like
    {!Rlfd_kernel.Stats.pp_summary}. *)

(** Deterministic, splittable pseudo-random numbers (SplitMix64).

    Every source of randomness in the repository flows through this module so
    that every run, experiment and benchmark is reproducible from a seed.
    Splitting matters for failure detectors: a detector must be a *function*
    of the failure pattern (and, for randomised ones, of a seed), so its
    module at process [p] and time [t] draws from the stream
    [split seed [hash p; hash t]] rather than from mutable global state. *)

type t
(** A mutable generator. *)

val make : int -> t
(** [make seed] creates a generator from an integer seed. *)

val split : t -> int -> t
(** [split g salt] derives an independent generator; the derivation is a pure
    function of [g]'s current state and [salt] and does not advance [g]. *)

val derive : seed:int -> salts:int list -> t
(** [derive ~seed ~salts] is the pure stream identified by the seed and the
    salt path; equal inputs give equal streams. *)

val of_path : seed:int -> int list -> t
(** [of_path ~seed path] is the pure stream at [path] in the split tree
    rooted at [seed] — e.g. [of_path ~seed:campaign [job]] is job [job]'s
    private stream of campaign [campaign].  Unlike {!derive}, each path
    segment also derives a fresh SplitMix64 gamma (increment), so sibling
    streams ([of_path ~seed [i]] for different [i]) are statistically
    independent: same results at any worker count, no cross-job
    correlation.  Equal inputs give equal streams. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool
(** A fair coin. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list.  Raises [Invalid_argument] on []. *)

val shuffle : t -> 'a list -> 'a list
(** A uniform permutation of the list (Fisher–Yates). *)

val subset : t -> p:float -> 'a list -> 'a list
(** Keeps each element independently with probability [p]. *)

(** Fast 63-bit mixing and open-addressing visited-set storage.

    The bounded-exhaustive explorer ({!Rlfd_sim.Explore}) canonicalizes
    millions of simulator states and must decide "seen before?" for each at
    hash-table speed without ever confusing two distinct states.  This
    module supplies both halves: native-int mixing primitives built on the
    SplitMix64 finalizer (the bijective mixer {!Rng} builds its streams
    from), and {!Table} — an open-addressing, linear-probing map from
    canonical byte strings to values that compares full keys on probe
    collisions, so equal fingerprints alone never cause a false merge.

    Everything works on OCaml's native (63-bit) int, so the explorer's hot
    path is free of [Int64] allocation.  63 bits lose nothing that
    matters: no correctness claim ever rests on fingerprints alone — every
    table confirms full key bytes on a hash hit.  All of it is
    deterministic: no seeding, no randomized hashing.  Two runs over the
    same states produce the same fingerprints, which is what lets explorer
    reports be compared byte-for-byte across configurations and worker
    counts. *)

val mix_int : int -> int
(** SplitMix64-style avalanche finalizer on the native int: every input
    bit affects every output bit.  Deterministic, unseeded. *)

val of_string_int : string -> int
(** Native-int fingerprint of a byte string (FNV-1a + {!mix_int}): the
    hash interned component values carry ({!Intern.h}) and the key of the
    explorer's decision set. *)

val combine_int : int -> int -> int
(** [combine_int acc h] folds [h] into the running fingerprint [acc].
    Non-commutative, so sequences hash by position; for order-{e
    insensitive} aggregation sum the hashes instead (addition is
    commutative and invertible — the delta-update trick). *)

(** Open-addressing storage for canonical encodings.

    A mutable map from byte-string keys to values, probed linearly in a
    power-of-two array and resized at 7/8 load.  Each entry keeps the
    fingerprint {e and} the full key: lookups reject an entry whose
    fingerprint matches but whose bytes differ, so the structure never
    conflates two states whose canonical encodings differ — the property
    the explorer's duplicate-pruning soundness rests on.  There is no
    deletion; the explorer only ever adds. *)
module Table : sig
  type 'a t

  val create : ?initial:int -> unit -> 'a t
  (** [initial] is a capacity hint (default 1024); the table grows as
      needed regardless. *)

  val find : 'a t -> key:int -> string -> 'a option
  (** [find t ~key bytes] is the value stored under [bytes], where [key]
      is the caller's fingerprint of [bytes] (e.g. [of_string_int bytes]):
      equal bytes must always come with equal keys.  Callers compute it
      once per probe. *)

  val set : 'a t -> key:int -> string -> 'a -> unit
  (** Insert or replace. *)

  val length : 'a t -> int
  (** Number of distinct keys stored. *)

  val capacity : 'a t -> int
  (** Current slot-array size (diagnostics: load factor is
      [length / capacity]). *)

  val key_bytes : 'a t -> int
  (** Total length of all stored keys — with [capacity], the basis of the
      explorer's visited-table memory telemetry. *)
end

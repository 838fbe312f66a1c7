(** Hashconsing of component values for the incremental-fingerprint kernel.

    The bounded-exhaustive explorer ({!Rlfd_sim.Explore}) identifies a
    global state by the step count plus three bags of component values:
    per-process automaton states, in-flight messages, emitted outputs.
    Serializing those components at every visited node is the Marshal tax
    this module removes: a table interns each {e distinct} component value
    once — encoding it, fingerprinting the encoding, and assigning it a
    dense integer id — so the hot path touches only ids and precomputed
    hashes.  Within one table's lifetime ids are in bijection with
    structurally-distinct values, which is what makes a vector of ids an
    exact state key (see the soundness note in the package docs).

    A table optionally carries a symmetry {!group} and with it the {e
    renaming lanes}: [ren e k] is the entry of the value pushed through
    the [k]-th group element, and [hs e] holds the fingerprints of those
    entries, so symmetry's orbit enumeration stops rebuilding and
    re-marshalling renamed values per candidate permutation.

    Identity is structural equality of the values (polymorphic [Hashtbl]);
    the contract is the same as {!Rlfd_sim.Canon.encode_value}'s:
    first-order, immutable, acyclic data. *)

type 'a group = {
  order : int;  (** the number of group elements, indexed [0 .. order - 1] *)
  rename : int -> 'a -> 'a;  (** [rename k] is the action of element [k] *)
  compose : int -> int -> int;
      (** [compose j k] is the index of "rename by [k], then by [j]" *)
}
(** A finite group acting on values.  The contract, which the symmetry
    quotient needs anyway and the lanes rely on:
    - element [0] is the identity: [rename 0 v = v] and
      [compose j 0 = j], [compose 0 k = k];
    - [rename] is an action: [rename j (rename k v)] is structurally
      equal to [rename (compose j k) v];
    - [rename k] maps structurally equal values to structurally equal
      values.

    Under it the orbit of a value is [{rename k v}], and renaming an
    orbit member stays inside the orbit, so the lanes of every member
    come off the multiplication table without renaming again. *)

type 'a entry
(** One interned value: its id, fingerprint, canonical bytes, and lanes. *)

type 'a t
(** An intern table; create one per exploration domain — entries and ids
    must not be shared across tables. *)

val create : ?group:'a group -> encode:('a -> string) -> unit -> 'a t
(** [create ~encode ()] is an empty table using [encode] to produce
    canonical bytes (structurally equal values must encode equally).
    [group] (default the trivial group of order 1) is the symmetry group
    whose lanes every entry carries.  Raises [Invalid_argument] if
    [group.order < 1]. *)

val intern : 'a t -> 'a -> 'a entry
(** [intern t v] is the entry for [v].  On first sight it interns [v]'s
    whole orbit: [order - 1] renamings of [v], then one encoding and one
    fingerprint per distinct member, and [order] lanes per member filled
    from [compose] — so an orbit costs [order] renamings and at most
    [order] encodings, however many members it has.  Afterwards it
    returns the existing entry: a hash lookup, no encoding. *)

val id : 'a entry -> int
(** Dense table-local id: equal ids iff structurally equal values.  The
    order in which an orbit's members receive their ids is unspecified. *)

val h : 'a entry -> int
(** 63-bit fingerprint of the entry's encoding
    ({!Hashing.of_string_int}) — a pure function of the value, so it
    agrees across tables and domains. *)

val enc : 'a entry -> string
(** The canonical bytes [encode v], computed once at interning time. *)

val value : 'a entry -> 'a
(** The interned value itself — lets id-carrying callers drop their own
    copy of the value and recover it from the entry when needed. *)

val ren : 'a entry -> int -> 'a entry
(** [ren e k] is the entry of the [k]-th renaming of [e]'s value;
    [ren e 0] is [e] itself.  Raises [Invalid_argument] if
    [k >= order]. *)

val hs : 'a entry -> int array
(** The lane fingerprints: [(hs e).(k) = h (ren e k)], one per group
    element.  Shared with the table: do not mutate. *)

val length : 'a t -> int
(** Number of distinct values interned so far. *)

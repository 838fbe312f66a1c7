(** A minimal JSON value, emitter and parser.

    The observability layer needs to export traces and registries as JSON
    without pulling a serialisation dependency into the build, so this is a
    deliberately small, self-contained implementation: enough of RFC 8259 to
    round-trip everything {!Trace} and {!Metrics} emit (objects, arrays,
    strings with escapes, ints, floats, bools, null).  It is not a
    general-purpose JSON library — no streaming, no number-precision
    guarantees beyond [%.12g]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

val to_string : t -> string
(** Compact (single-line) rendering — one value per line is what makes the
    JSONL trace format greppable and [jq]-friendly. *)

val of_string : string -> (t, string) result
(** Parses one JSON value; trailing non-whitespace is an error.  [Error]
    carries a human-readable reason with a character position. *)

(** {1 Accessors}

    Total accessors for consuming parsed values; all return [None] on a
    shape mismatch rather than raising. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val to_int_opt : t -> int option
(** Also accepts a [Float] with an integral value. *)

val to_float_opt : t -> float option
(** Accepts [Int] and [Float]. *)

val to_string_opt : t -> string option

val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option

(** ASCII table rendering for the experiment harness.

    The paper has no numbered tables; EXPERIMENTS.md defines the tables this
    reproduction reports, and every one of them is printed through this
    module so that [bench/main.exe] output and the recorded results share one
    format. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header. *)

val pp : Format.formatter -> t -> unit

val print : t -> unit
(** [pp] on [Format.std_formatter], followed by a newline and a flush. *)

val cell_int : int -> string

val cell_float : ?decimals:int -> float -> string

val cell_bool : bool -> string
(** Renders as [yes]/[no]. *)

val cell_pct : float -> string
(** [cell_pct 0.25] is ["25.0%"]. *)

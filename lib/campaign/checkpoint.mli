(** Campaign checkpoint files: an append-only JSONL completion log.

    Line 1 is a header identifying the campaign (name, campaign seed, job
    count, schema version); every further line records one completed job
    with its encoded result.  Because the file is append-only and flushed
    per entry, whatever a killed campaign leaves behind is a valid prefix —
    possibly ending in a torn partial line, which {!load} skips and counts
    rather than rejects.  Resuming therefore never redoes a completed job
    and never produces a duplicate job id. *)

(** The identity line a checkpoint file opens with. *)
type header = { name : string; seed : int; total : int }

(** One completed-job line. *)
type entry = {
  job : int;  (** the job's index *)
  label : string;  (** the label the campaign gave it *)
  elapsed_s : float;  (** wall time the original run spent on it *)
  value : Rlfd_obs.Json.t;  (** the encoded job result *)
}

val write_header : out_channel -> header -> unit
(** One JSON object line; flushed and fsynced. *)

val write_entry : out_channel -> entry -> unit
(** One JSON object line; flushed {e and fsynced}, so neither a kill nor a
    power cut loses an acknowledged job — at most the line being written
    is torn. *)

val write_entries : out_channel -> entry list -> unit
(** Batch form of {!write_entry}: all lines buffered, one flush+fsync at
    the end.  What the engine uses when compacting recovered entries on
    resume — durability of the whole batch, cost of one sync. *)

val load : string -> (header * entry list * int, string) result
(** [load path] parses the checkpoint: the header, the well-formed entries
    in file order (duplicates included — the engine dedupes), and the count
    of skipped lines (torn tails, foreign garbage).  [Error] if the file is
    unreadable (missing, a directory), empty, or its first line is not a
    campaign header. *)

(** Space–time diagrams of runs and of flight-recorder replays.

    One column per process and one row per step: lambda steps, receive
    events (annotated with the sender), outputs (decisions/deliveries,
    marked [*]), and crashes ([X] from the crash time on).  Both sources —
    a {!Runner.result} and a {!Replay.execution} — convert into
    {!Timeline.step}s, and one ASCII grid ({!Timeline.render_ascii}) and
    one DOT graph ({!Timeline.render_dot}) draw them.  Used by the [fdsim]
    CLI and handy in tests when a property fails and the schedule needs
    eyeballing. *)

(** Renderer-neutral timelines.  A [Timeline.step] is the common
    denominator of runner results and replayed artifacts — process,
    receive edge, send edges (with message identities), outputs, detector
    answer — so [fdsim render] draws the same diagram whatever produced
    the recording.  Two back-ends: ASCII for the terminal and DOT for
    graphviz (bold process-order chains, dashed message edges, crash
    markers). *)
module Timeline : sig
  type step = {
    t : int;  (** tick (run artifacts) or step index (explore artifacts) *)
    pid : int;
    recv : (int * int) option;  (** sender, message id *)
    sends : (int * int) list;  (** destination, message id *)
    outs : string list;  (** rendered outputs *)
    seen : string option;  (** rendered detector answer *)
  }

  val of_execution : 'o Replay.execution -> step list

  val of_result : ?pp_output:('o -> string) -> ('s, 'o) Runner.result -> step list

  val render_ascii :
    ?max_rows:int -> ?title:string -> pattern:Rlfd_fd.Pattern.t -> step list -> string
  (** The grid: one column per process, one row per step, [X] from a
      process's crash tick in [pattern] on, outputs ([out=...]) and
      detector answers in the right margin; rows beyond [max_rows]
      (default 60) are elided with a summary line. *)

  val render_dot : ?title:string -> pattern:Rlfd_fd.Pattern.t -> step list -> string
  (** A graphviz digraph: one node per step (double border = output
      emitted), bold edges chaining each process's steps, dashed edges
      from each send to its delivery (matched by message id), octagons
      for crashes. *)
end

val render :
  ?max_rows:int -> ?pp_output:('o -> string) -> ('s, 'o) Runner.result -> string
(** [render r] is {!Timeline.render_ascii} of {!Timeline.of_result}, with
    [r]'s crash times.  Requires the run to have recorded events (the
    default). *)

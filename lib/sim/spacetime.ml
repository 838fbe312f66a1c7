open Rlfd_kernel
open Rlfd_fd

let legend =
  "legend: '.' lambda step, '<k' received from pk, '*' output emitted, 'X' crashed"

let cell_width = 6

let pad s =
  if String.length s >= cell_width then String.sub s 0 cell_width
  else s ^ String.make (cell_width - String.length s) ' '

module Timeline = struct
  type step = {
    t : int;
    pid : int;
    recv : (int * int) option;
    sends : (int * int) list;
    outs : string list;
    seen : string option;
  }

  let of_execution (e : _ Replay.execution) =
    List.mapi
      (fun i (s : Replay.step_info) ->
        {
          t = i;
          pid = Pid.to_int s.Replay.pid;
          recv =
            Option.map
              (fun (src, id) -> (Pid.to_int src, id))
              s.Replay.received;
          sends =
            List.map (fun (dst, id) -> (Pid.to_int dst, id)) s.Replay.sent;
          outs = s.Replay.outputs;
          seen = Some s.Replay.seen;
        })
      e.Replay.steps

  let of_result ?(pp_output = fun _ -> "_") (r : _ Runner.result) =
    List.map
      (fun (e : _ Runner.event) ->
        {
          t = Time.to_int e.Runner.time;
          pid = Pid.to_int e.Runner.pid;
          recv =
            (match (e.Runner.received, e.Runner.received_id) with
            | Some src, Some id -> Some (Pid.to_int src, id)
            | _ -> None);
          sends =
            List.map2
              (fun dst id -> (Pid.to_int dst, id))
              e.Runner.sent_to e.Runner.sent_ids;
          outs = List.map pp_output e.Runner.outputs;
          seen = None;
        })
      (Runner.events r)

  let crashed_at pattern p =
    Option.map Time.to_int (Pattern.crash_time pattern (Pid.of_int p))

  let render_ascii ?(max_rows = 60) ?title ~pattern steps =
    let n = Pattern.n pattern and crashed_at = crashed_at pattern in
    let buffer = Stdlib.Buffer.create 1024 in
    let add fmt = Format.kasprintf (Stdlib.Buffer.add_string buffer) fmt in
    (match title with None -> () | Some t -> add "%s\n" t);
    add "%s" (pad "t");
    for p = 1 to n do
      add "%s" (pad (Printf.sprintf "p%d" p))
    done;
    Stdlib.Buffer.add_string buffer "\n";
    let shown = List.filteri (fun i _ -> i < max_rows) steps in
    List.iter
      (fun s ->
        add "%s" (pad (string_of_int s.t));
        for p = 1 to n do
          let cell =
            if p = s.pid then begin
              let action =
                match s.recv with
                | Some (src, _) -> Printf.sprintf "<%d" src
                | None -> "."
              in
              let mark = if s.outs <> [] then "*" else "" in
              action ^ mark
            end
            else
              match crashed_at p with
              | Some ct when ct <= s.t -> "X"
              | _ -> ""
          in
          add "%s" (pad cell)
        done;
        if s.outs <> [] then add " out=%s" (String.concat "," s.outs);
        (match s.seen with
        | Some seen when s.outs <> [] || s.recv <> None ->
          add " seen=%s" seen
        | _ -> ());
        Stdlib.Buffer.add_string buffer "\n")
      shown;
    let hidden = List.length steps - List.length shown in
    if hidden > 0 then add "... %d more steps elided ...\n" hidden;
    add "%s\n" legend;
    Stdlib.Buffer.contents buffer

  let dot_escape s =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))

  let render_dot ?title ~pattern steps =
    let n = Pattern.n pattern and crashed_at = crashed_at pattern in
    let buffer = Stdlib.Buffer.create 1024 in
    let add fmt = Format.kasprintf (Stdlib.Buffer.add_string buffer) fmt in
    add "digraph spacetime {\n";
    add "  rankdir=LR;\n";
    add "  node [shape=box, fontsize=10, fontname=\"monospace\"];\n";
    (match title with
    | None -> ()
    | Some t -> add "  label=\"%s\"; labelloc=top;\n" (dot_escape t));
    let indexed = List.mapi (fun i s -> (i, s)) steps in
    (* one node per step, annotated with receive/outputs/detector answer *)
    List.iter
      (fun (i, s) ->
        let label =
          Printf.sprintf "t%d p%d" s.t s.pid
          ^ (match s.recv with
            | Some (src, _) -> Printf.sprintf "\\nrecv p%d" src
            | None -> "")
          ^ (match s.seen with
            | Some seen -> Printf.sprintf "\\nseen %s" (dot_escape seen)
            | None -> "")
          ^ String.concat ""
              (List.map
                 (fun o -> Printf.sprintf "\\noutput %s" (dot_escape o))
                 s.outs)
        in
        let attrs = if s.outs <> [] then ", peripheries=2" else "" in
        add "  s%d [label=\"%s\"%s];\n" i label attrs)
      indexed;
    (* process order: bold chain of each process's own steps *)
    for p = 1 to n do
      let own = List.filter (fun (_, s) -> s.pid = p) indexed in
      let rec chain = function
        | (i, _) :: ((j, _) :: _ as rest) ->
          add "  s%d -> s%d [style=bold];\n" i j;
          chain rest
        | _ -> ()
      in
      chain own;
      match crashed_at p with
      | None -> ()
      | Some ct -> (
        add "  x%d [label=\"p%d crashes at t%d\", shape=octagon];\n" p p ct;
        match List.rev own with
        | (i, _) :: _ -> add "  s%d -> x%d [style=bold];\n" i p
        | [] -> ())
    done;
    (* message edges: dashed, send step -> receive step, matched by id *)
    List.iter
      (fun (i, s) ->
        List.iter
          (fun (_, id) ->
            match
              List.find_opt
                (fun (_, r) ->
                  match r.recv with Some (_, id') -> id' = id | None -> false)
                indexed
            with
            | Some (j, _) -> add "  s%d -> s%d [style=dashed, label=\"m%d\"];\n" i j id
            | None -> ())
          s.sends)
      indexed;
    add "}\n";
    Stdlib.Buffer.contents buffer
end

let render ?max_rows ?pp_output (r : _ Runner.result) =
  Timeline.render_ascii ?max_rows ~pattern:r.Runner.pattern
    (Timeline.of_result ?pp_output r)

let schema_version = 3

type event =
  | Step of {
      time : int;
      pid : int;
      received_from : int option;
      sent_to : int list;
      outputs : string list;
      seen : string option;
    }
  | Send of { time : int; src : int; dst : int }
  | Deliver of { time : int; src : int; dst : int }
  | Drop of { time : int; src : int; dst : int }
  | Timer_set of { time : int; pid : int; tag : int; fires_at : int }
  | Timer_fire of { time : int; pid : int; tag : int }
  | Suspect of { time : int; observer : int; subject : int; on : bool }
  | Crash of { time : int; pid : int }
  | Halt of { time : int; pid : int }
  | Violation of { time : int; reason : string }
  | Progress of {
      time : int;
      label : string;
      done_ : int;
      total : int option;
      rate : float;
      detail : (string * float) list;
    }
  | Qos_snapshot of {
      time : int;
      label : string;
      suspected : int;
      detected : int;
      undetected : int;
      false_episodes : int;
      det_p50 : float;
      det_p95 : float;
      det_p99 : float;
      msgs : int;
      bandwidth : float;
    }

let time_of = function
  | Step { time; _ }
  | Send { time; _ }
  | Deliver { time; _ }
  | Drop { time; _ }
  | Timer_set { time; _ }
  | Timer_fire { time; _ }
  | Suspect { time; _ }
  | Crash { time; _ }
  | Halt { time; _ }
  | Violation { time; _ }
  | Progress { time; _ }
  | Qos_snapshot { time; _ } -> time

(* ---------- JSON encoding ---------- *)

let to_json event =
  let open Json in
  let tagged tag fields = Obj (("ev", String tag) :: fields) in
  match event with
  | Step { time; pid; received_from; sent_to; outputs; seen } ->
    let base =
      [ ("t", Int time); ("pid", Int pid);
        ("recv", match received_from with Some p -> Int p | None -> Null);
        ("sent_to", List (List.map (fun p -> Int p) sent_to));
        ("outputs", List (List.map (fun o -> String o) outputs)) ]
    in
    let base =
      match seen with None -> base | Some s -> base @ [ ("seen", String s) ]
    in
    tagged "step" base
  | Send { time; src; dst } ->
    tagged "send" [ ("t", Int time); ("src", Int src); ("dst", Int dst) ]
  | Deliver { time; src; dst } ->
    tagged "deliver" [ ("t", Int time); ("src", Int src); ("dst", Int dst) ]
  | Drop { time; src; dst } ->
    tagged "drop" [ ("t", Int time); ("src", Int src); ("dst", Int dst) ]
  | Timer_set { time; pid; tag; fires_at } ->
    tagged "timer_set"
      [ ("t", Int time); ("pid", Int pid); ("tag", Int tag);
        ("fires_at", Int fires_at) ]
  | Timer_fire { time; pid; tag } ->
    tagged "timer_fire" [ ("t", Int time); ("pid", Int pid); ("tag", Int tag) ]
  | Suspect { time; observer; subject; on } ->
    tagged "suspect"
      [ ("t", Int time); ("observer", Int observer); ("subject", Int subject);
        ("on", Bool on) ]
  | Crash { time; pid } -> tagged "crash" [ ("t", Int time); ("pid", Int pid) ]
  | Halt { time; pid } -> tagged "halt" [ ("t", Int time); ("pid", Int pid) ]
  | Violation { time; reason } ->
    tagged "violation" [ ("t", Int time); ("reason", String reason) ]
  | Progress { time; label; done_; total; rate; detail } ->
    tagged "progress"
      [ ("t", Int time); ("label", String label); ("done", Int done_);
        ("total", (match total with Some n -> Int n | None -> Null));
        ("rate", Float rate);
        ("detail", Obj (List.map (fun (k, v) -> (k, Float v)) detail)) ]
  | Qos_snapshot
      { time; label; suspected; detected; undetected; false_episodes;
        det_p50; det_p95; det_p99; msgs; bandwidth } ->
    tagged "qos"
      [ ("t", Int time); ("label", String label);
        ("suspected", Int suspected); ("detected", Int detected);
        ("undetected", Int undetected);
        ("false_episodes", Int false_episodes);
        ("det_p50", Float det_p50); ("det_p95", Float det_p95);
        ("det_p99", Float det_p99); ("msgs", Int msgs);
        ("bandwidth", Float bandwidth) ]

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or invalid field %S" name)
  in
  let int_field name = field name Json.to_int_opt in
  let string_field name = field name Json.to_string_opt in
  let bool_field name = field name Json.to_bool_opt in
  let opt_int_field name =
    match Json.member name json with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "invalid field %S" name))
  in
  let int_list_field name =
    let* items = field name Json.to_list_opt in
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> (
        match Json.to_int_opt v with
        | Some i -> conv (i :: acc) rest
        | None -> Error (Printf.sprintf "non-int element in %S" name))
    in
    conv [] items
  in
  let string_list_field name =
    let* items = field name Json.to_list_opt in
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> (
        match Json.to_string_opt v with
        | Some s -> conv (s :: acc) rest
        | None -> Error (Printf.sprintf "non-string element in %S" name))
    in
    conv [] items
  in
  let* tag = string_field "ev" in
  match tag with
  | "step" ->
    let* time = int_field "t" in
    let* pid = int_field "pid" in
    let* received_from = opt_int_field "recv" in
    let* sent_to = int_list_field "sent_to" in
    let* outputs = string_list_field "outputs" in
    let seen =
      Option.bind (Json.member "seen" json) Json.to_string_opt
    in
    Ok (Step { time; pid; received_from; sent_to; outputs; seen })
  | "send" | "deliver" | "drop" ->
    let* time = int_field "t" in
    let* src = int_field "src" in
    let* dst = int_field "dst" in
    Ok
      (match tag with
      | "send" -> Send { time; src; dst }
      | "deliver" -> Deliver { time; src; dst }
      | _ -> Drop { time; src; dst })
  | "timer_set" ->
    let* time = int_field "t" in
    let* pid = int_field "pid" in
    let* tag = int_field "tag" in
    let* fires_at = int_field "fires_at" in
    Ok (Timer_set { time; pid; tag; fires_at })
  | "timer_fire" ->
    let* time = int_field "t" in
    let* pid = int_field "pid" in
    let* tag = int_field "tag" in
    Ok (Timer_fire { time; pid; tag })
  | "suspect" ->
    let* time = int_field "t" in
    let* observer = int_field "observer" in
    let* subject = int_field "subject" in
    let* on = bool_field "on" in
    Ok (Suspect { time; observer; subject; on })
  | "crash" ->
    let* time = int_field "t" in
    let* pid = int_field "pid" in
    Ok (Crash { time; pid })
  | "halt" ->
    let* time = int_field "t" in
    let* pid = int_field "pid" in
    Ok (Halt { time; pid })
  | "violation" ->
    let* time = int_field "t" in
    let* reason = string_field "reason" in
    Ok (Violation { time; reason })
  | "progress" ->
    let* time = int_field "t" in
    let* label = string_field "label" in
    let* done_ = int_field "done" in
    let* total = opt_int_field "total" in
    let* rate =
      match Option.bind (Json.member "rate" json) Json.to_float_opt with
      | Some f -> Ok f
      | None -> Error "missing or invalid field \"rate\""
    in
    let* detail =
      match Json.member "detail" json with
      | None -> Ok []
      | Some (Json.Obj kvs) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
            match Json.to_float_opt v with
            | Some f -> conv ((k, f) :: acc) rest
            | None -> Error (Printf.sprintf "non-number detail %S" k))
        in
        conv [] kvs
      | Some _ -> Error "invalid field \"detail\""
    in
    Ok (Progress { time; label; done_; total; rate; detail })
  | "qos" ->
    let float_field name =
      match Option.bind (Json.member name json) Json.to_float_opt with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "missing or invalid field %S" name)
    in
    let* time = int_field "t" in
    let* label = string_field "label" in
    let* suspected = int_field "suspected" in
    let* detected = int_field "detected" in
    let* undetected = int_field "undetected" in
    let* false_episodes = int_field "false_episodes" in
    let* det_p50 = float_field "det_p50" in
    let* det_p95 = float_field "det_p95" in
    let* det_p99 = float_field "det_p99" in
    let* msgs = int_field "msgs" in
    let* bandwidth = float_field "bandwidth" in
    Ok
      (Qos_snapshot
         { time; label; suspected; detected; undetected; false_episodes;
           det_p50; det_p95; det_p99; msgs; bandwidth })
  | other -> Error (Printf.sprintf "unknown event tag %S" other)

let parse_line line = Result.bind (Json.of_string line) of_json

(* ---------- rendering ---------- *)

let render event =
  match event with
  | Step { time; pid; received_from; sent_to; outputs; seen } ->
    Printf.sprintf "t=%-5d p%d %s%s%s%s" time pid
      (match received_from with
      | Some src -> Printf.sprintf "recv<-p%d" src
      | None -> "lambda")
      (match sent_to with
      | [] -> ""
      | dsts ->
        Printf.sprintf " send->{%s}"
          (String.concat "," (List.map (Printf.sprintf "p%d") dsts)))
      (match outputs with
      | [] -> ""
      | outs -> Printf.sprintf " OUTPUT %s" (String.concat "; " outs))
      (match seen with None -> "" | Some s -> Printf.sprintf " seen=%s" s)
  | Send { time; src; dst } -> Printf.sprintf "t=%-5d p%d send->p%d" time src dst
  | Deliver { time; src; dst } ->
    Printf.sprintf "t=%-5d p%d deliver<-p%d" time dst src
  | Drop { time; src; dst } ->
    Printf.sprintf "t=%-5d p%d->p%d DROPPED" time src dst
  | Timer_set { time; pid; tag; fires_at } ->
    Printf.sprintf "t=%-5d p%d timer-set tag=%d fires@%d" time pid tag fires_at
  | Timer_fire { time; pid; tag } ->
    Printf.sprintf "t=%-5d p%d timer-fire tag=%d" time pid tag
  | Suspect { time; observer; subject; on } ->
    Printf.sprintf "t=%-5d p%d %s p%d" time observer
      (if on then "suspects" else "trusts")
      subject
  | Crash { time; pid } -> Printf.sprintf "t=%-5d p%d CRASH" time pid
  | Halt { time; pid } -> Printf.sprintf "t=%-5d p%d HALT" time pid
  | Violation { time; reason } ->
    Printf.sprintf "step=%-3d VIOLATION %s" time reason
  | Progress { time; label; done_; total; rate; detail } ->
    Printf.sprintf "[%6.1fs] %s %s rate=%.0f/s%s"
      (float_of_int time /. 1000.)
      label
      (match total with
      | Some n when n > 0 ->
        Printf.sprintf "%d/%d (%.1f%%)" done_ n
          (100. *. float_of_int done_ /. float_of_int n)
      | _ -> string_of_int done_)
      rate
      (match detail with
      | [] -> ""
      | kvs ->
        " " ^ String.concat " " (List.map (fun (k, v) ->
          if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%s=%.0f" k v
          else Printf.sprintf "%s=%.2f" k v)
          kvs))
  | Qos_snapshot
      { time; label; suspected; detected; undetected; false_episodes;
        det_p50; det_p95; det_p99; msgs; bandwidth } ->
    Printf.sprintf
      "t=%-5d QOS %s susp=%d det=%d undet=%d false=%d p50=%.0f p95=%.0f p99=%.0f msgs=%d bw=%.1f/t"
      time label suspected detected undetected false_episodes det_p50 det_p95
      det_p99 msgs bandwidth

let pp ppf event = Format.pp_print_string ppf (render event)

(* ---------- sinks ---------- *)

type sink = {
  push : event -> unit;
  read : unit -> event list;
  quiet : bool;  (* true = emissions are no-ops, callers may skip work *)
}

let null = { push = ignore; read = (fun () -> []); quiet = true }

let is_null sink = sink.quiet

let memory () =
  let events = ref [] in
  {
    push = (fun e -> events := e :: !events);
    read = (fun () -> List.rev !events);
    quiet = false;
  }

let contents sink = sink.read ()

let to_channel oc =
  {
    push =
      (fun e ->
        output_string oc (Json.to_string (to_json e));
        output_char oc '\n');
    read = (fun () -> []);
    quiet = false;
  }

let to_buffer b =
  {
    push =
      (fun e ->
        Buffer.add_string b (Json.to_string (to_json e));
        Buffer.add_char b '\n');
    read = (fun () -> []);
    quiet = false;
  }

let formatter ppf =
  {
    push = (fun e -> Format.fprintf ppf "%s@." (render e));
    read = (fun () -> []);
    quiet = false;
  }

let callback f = { push = f; read = (fun () -> []); quiet = false }

let tee a b =
  if a.quiet then b
  else if b.quiet then a
  else
    {
      push =
        (fun e ->
          a.push e;
          b.push e);
      read = (fun () -> a.read () @ b.read ());
      quiet = false;
    }

let emit sink event = sink.push event

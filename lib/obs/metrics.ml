type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of Sketch.t

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 32

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create registry name make expect =
  match Hashtbl.find_opt registry name with
  | Some m ->
    if kind_name m <> expect then
      invalid_arg
        (Printf.sprintf "Metrics: %S is a %s, used as a %s" name (kind_name m)
           expect);
    m
  | None ->
    let m = make () in
    Hashtbl.add registry name m;
    m

let incr ?(by = 1) registry name =
  match find_or_create registry name (fun () -> Counter (ref 0)) "counter" with
  | Counter r -> r := !r + by
  | _ -> assert false

let set_gauge registry name v =
  match find_or_create registry name (fun () -> Gauge (ref v)) "gauge" with
  | Gauge r -> r := v
  | _ -> assert false

let histogram_of registry name =
  match
    find_or_create registry name
      (fun () -> Histogram (Sketch.create ()))
      "histogram"
  with
  | Histogram s -> s
  | _ -> assert false

let observe registry name sample = Sketch.add (histogram_of registry name) sample

let sink registry =
  Trace.callback (function
    | Trace.Step { received_from; sent_to; outputs; _ } ->
      incr registry "steps";
      incr ~by:(List.length sent_to) registry "messages_sent";
      if received_from <> None then incr registry "messages_delivered";
      incr ~by:(List.length outputs) registry "outputs"
    | Send _ -> incr registry "messages_sent"
    | Deliver _ -> incr registry "messages_delivered"
    | Drop _ -> incr registry "messages_dropped"
    | Timer_set _ -> incr registry "timers_set"
    | Timer_fire _ -> incr registry "timers_fired"
    | Crash _ -> incr registry "crashes"
    | Halt _ -> incr registry "halts"
    | Suspect _ -> incr registry "suspicion_transitions"
    | Violation _ | Progress _ | Qos_snapshot _ -> ())

let observe_gc registry =
  let g = Gc.quick_stat () in
  set_gauge registry "gc_minor_collections" (float_of_int g.Gc.minor_collections);
  set_gauge registry "gc_major_collections" (float_of_int g.Gc.major_collections);
  set_gauge registry "gc_compactions" (float_of_int g.Gc.compactions);
  set_gauge registry "gc_promoted_words" g.Gc.promoted_words;
  set_gauge registry "gc_heap_words" (float_of_int g.Gc.heap_words);
  set_gauge registry "gc_top_heap_words" (float_of_int g.Gc.top_heap_words);
  set_gauge registry "gc_minor_words" g.Gc.minor_words;
  set_gauge registry "gc_major_words" g.Gc.major_words

let observe_sketch registry name sketch =
  Sketch.merge ~into:(histogram_of registry name) sketch

let counter_value registry name =
  match Hashtbl.find_opt registry name with Some (Counter r) -> !r | _ -> 0

let gauge_value registry name =
  match Hashtbl.find_opt registry name with
  | Some (Gauge r) -> Some !r
  | _ -> None

let histogram registry name =
  match Hashtbl.find_opt registry name with
  | Some (Histogram s) -> Some s
  | _ -> None

let histogram_count registry name =
  match histogram registry name with Some s -> Sketch.count s | None -> 0

let names registry =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

let is_empty registry = Hashtbl.length registry = 0

let sorted registry =
  List.map (fun name -> (name, Hashtbl.find registry name)) (names registry)

let to_json registry =
  let open Json in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, metric) ->
      match metric with
      | Counter r -> counters := (name, Int !r) :: !counters
      | Gauge r -> gauges := (name, Float !r) :: !gauges
      | Histogram s -> histograms := (name, Sketch.to_json s) :: !histograms)
    (sorted registry);
  Obj
    [ ("counters", Obj (List.rev !counters));
      ("gauges", Obj (List.rev !gauges));
      ("histograms", Obj (List.rev !histograms)) ]

let pp ppf registry =
  if is_empty registry then Format.pp_print_string ppf "(no metrics recorded)"
  else begin
    let rows = sorted registry in
    let width =
      List.fold_left (fun acc (name, _) -> Stdlib.max acc (String.length name))
        0 rows
    in
    Format.pp_open_vbox ppf 0;
    List.iteri
      (fun i (name, metric) ->
        if i > 0 then Format.pp_print_cut ppf ();
        Format.fprintf ppf "%-*s  %-9s " width name (kind_name metric);
        match metric with
        | Counter r -> Format.fprintf ppf "%d" !r
        | Gauge r -> Format.fprintf ppf "%.2f" !r
        | Histogram s -> Sketch.pp ppf s)
      rows;
    Format.pp_close_box ppf ()
  end

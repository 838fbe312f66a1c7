(* The observability layer: the hand-rolled JSON codec, the trace schema
   round-trip (in-memory events vs the JSONL export of the same run), the
   metrics registry and its cross-layer invariants, and profiling spans. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Rlfd_net
open Helpers
module Json = Rlfd_obs.Json
module Trace = Rlfd_obs.Trace
module Metrics = Rlfd_obs.Metrics
module Profile = Rlfd_obs.Profile
module Sketch = Rlfd_obs.Sketch

let event = Alcotest.testable Trace.pp ( = )

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

(* ---------- Json ---------- *)

let sample_json =
  Json.Obj
    [ ("a", Json.Int 3); ("b", Json.List [ Json.Bool true; Json.Null ]);
      ("c", Json.Obj [ ("nested", Json.Float 2.5) ]);
      ("s", Json.String "quote \" backslash \\ newline \n tab \t") ]

let json_tests =
  [
    test "to_string/of_string round-trips nesting and escapes" (fun () ->
        let reparsed = ok_exn (Json.of_string (Json.to_string sample_json)) in
        Alcotest.(check string) "fixpoint" (Json.to_string sample_json)
          (Json.to_string reparsed));
    test "of_string rejects trailing garbage and malformed input" (fun () ->
        List.iter
          (fun s ->
            match Json.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ "{\"a\":1} x"; "{"; "[1,]"; "nul"; "\"unterminated"; "" ]);
    test "accessors are total and shape-checked" (fun () ->
        let v = ok_exn (Json.of_string {|{"i":7,"f":1.5,"l":[1],"s":"x"}|}) in
        Alcotest.(check (option int)) "int" (Some 7)
          (Option.bind (Json.member "i" v) Json.to_int_opt);
        Alcotest.(check (option int)) "int of integral float" (Some 2)
          (Json.to_int_opt (Json.Float 2.0));
        Alcotest.(check (option int)) "no int from 1.5" None
          (Option.bind (Json.member "f" v) Json.to_int_opt);
        Alcotest.(check bool) "float accepts int" true
          (Option.bind (Json.member "i" v) Json.to_float_opt = Some 7.);
        Alcotest.(check (option string)) "missing member" None
          (Option.map Json.to_string (Json.member "zz" v));
        Alcotest.(check bool) "list" true
          (Option.bind (Json.member "l" v) Json.to_list_opt = Some [ Json.Int 1 ]));
    test "non-finite floats degrade to null" (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan));
        Alcotest.(check string) "inf" "null"
          (Json.to_string (Json.Float infinity)));
    qtest_reader "of_string never raises on a corrupted document"
      ~text:(Json.to_string sample_json) ~read:Json.of_string
      ~roundtrip:(( = ) (Ok sample_json));
  ]

(* ---------- trace schema ---------- *)

let all_constructors =
  [ Trace.Step
      { time = 3; pid = 1; received_from = Some 2; sent_to = [ 2; 3 ];
        outputs = [ "42" ]; seen = Some "{p2}" };
    Trace.Step
      { time = 0; pid = 4; received_from = None; sent_to = []; outputs = [];
        seen = None };
    Trace.Send { time = 1; src = 1; dst = 2 };
    Trace.Deliver { time = 5; src = 1; dst = 2 };
    Trace.Drop { time = 5; src = 3; dst = 2 };
    Trace.Timer_set { time = 2; pid = 1; tag = 7; fires_at = 22 };
    Trace.Timer_fire { time = 22; pid = 1; tag = 7 };
    Trace.Suspect { time = 30; observer = 1; subject = 3; on = true };
    Trace.Suspect { time = 31; observer = 1; subject = 3; on = false };
    Trace.Crash { time = 40; pid = 3 };
    Trace.Halt { time = 41; pid = 4 };
    Trace.Violation { time = 6; reason = "disagreement: 1 vs 2" };
    Trace.Violation { time = 0; reason = "hello \"world\"" };
    Trace.Progress
      { time = 1500; label = "explore"; done_ = 5000; total = Some 200_000;
        rate = 12_500.; detail = [ ("depth", 7.); ("load_factor", 0.43) ] };
    Trace.Progress
      { time = 10; label = "campaign"; done_ = 1; total = None; rate = 0.;
        detail = [] };
    Trace.Qos_snapshot
      { time = 900; label = "qos n=100"; suspected = 4; detected = 2;
        undetected = 1; false_episodes = 3; det_p50 = 41.; det_p95 = 52.5;
        det_p99 = 52.5; msgs = 123_456; bandwidth = 137.2 } ]

let trace_tests =
  [
    test "every constructor round-trips through JSON" (fun () ->
        List.iter
          (fun e ->
            let back = ok_exn (Trace.of_json (Trace.to_json e)) in
            Alcotest.check event (Trace.render e) e back)
          all_constructors);
    test "parse_line is the inverse of the JSONL rendering" (fun () ->
        List.iter
          (fun e ->
            let line = Json.to_string (Trace.to_json e) in
            Alcotest.check event line e (ok_exn (Trace.parse_line line)))
          all_constructors);
    test "of_json rejects unknown tags and missing fields" (fun () ->
        List.iter
          (fun s ->
            match Trace.of_json (ok_exn (Json.of_string s)) with
            | Ok _ -> Alcotest.failf "accepted %s" s
            | Error _ -> ())
          [ {|{"ev":"warp","t":1}|}; {|{"t":1}|}; {|{"ev":"send","t":1,"src":2}|} ]);
    test "tee reaches both sinks; null absorbs" (fun () ->
        let m1 = Trace.memory () and m2 = Trace.memory () in
        let s = Trace.tee m1 (Trace.tee Trace.null m2) in
        Alcotest.(check bool) "not null" false (Trace.is_null s);
        Trace.emit s (Trace.Crash { time = 1; pid = 1 });
        Alcotest.(check (list event)) "m1" [ Trace.Crash { time = 1; pid = 1 } ]
          (Trace.contents m1);
        Alcotest.(check (list event)) "m2" [ Trace.Crash { time = 1; pid = 1 } ]
          (Trace.contents m2);
        Alcotest.(check bool) "null tee collapses" true
          (Trace.is_null (Trace.tee Trace.null Trace.null)));
    qtest_reader "parse_line never raises on a corrupted JSONL trace"
      ~text:
        (String.concat "\n"
           (List.map (fun e -> Json.to_string (Trace.to_json e)) all_constructors))
      ~read:(fun text -> List.map Trace.parse_line (String.split_on_char '\n' text))
      ~roundtrip:(( = ) (List.map Result.ok all_constructors));
  ]

(* ---------- a real run: JSONL export vs in-memory events ---------- *)

let traced_run () =
  let n = 4 in
  let pattern = pattern ~n [ (2, 8) ] in
  (* [Buffer] here is the message buffer of [Rlfd_sim]; we want stdlib's. *)
  let buf = Stdlib.Buffer.create 4096 in
  let mem = Trace.memory () in
  let metrics = Metrics.create () in
  let r =
    Runner.run ~pattern ~detector:Perfect.canonical
      ~scheduler:(Scheduler.fair ()) ~horizon:(time 6000)
      ~until:(Runner.stop_when_all_correct_output pattern)
      ~sink:(Trace.tee (Trace.tee mem (Trace.to_buffer buf)) (Metrics.sink metrics))
      ~pp_output:string_of_int
      ~pp_seen:(Format.asprintf "%a" Pid.Set.pp)
      (Ct_strong.automaton ~proposals)
  in
  (r, Stdlib.Buffer.contents buf, Trace.contents mem, metrics)

let parse_jsonl text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> ok_exn (Trace.parse_line l))

let run_tests =
  [
    test "JSONL line count equals the run's steps" (fun () ->
        let r, jsonl, _, _ = traced_run () in
        Alcotest.(check int) "lines = steps" r.Runner.steps
          (List.length (parse_jsonl jsonl)));
    test "emit -> JSONL -> parse equals the in-memory event stream" (fun () ->
        let _, jsonl, mem_events, _ = traced_run () in
        Alcotest.(check (list event)) "round-trip" mem_events (parse_jsonl jsonl));
    test "trace Step events mirror Runner.events field by field" (fun () ->
        let r, jsonl, _, _ = traced_run () in
        let steps = parse_jsonl jsonl in
        Alcotest.(check int) "same length" (List.length (Runner.events r))
          (List.length steps);
        List.iter2
          (fun (ev : _ Runner.event) traced ->
            match traced with
            | Trace.Step { time; pid; received_from; sent_to; outputs; seen } ->
              Alcotest.(check int) "time" (Time.to_int ev.Runner.time) time;
              Alcotest.(check int) "pid" (Pid.to_int ev.Runner.pid) pid;
              Alcotest.(check (option int)) "received"
                (Option.map Pid.to_int ev.Runner.received)
                received_from;
              Alcotest.(check (list int)) "sent_to"
                (List.map Pid.to_int ev.Runner.sent_to)
                sent_to;
              Alcotest.(check (list string)) "outputs"
                (List.map string_of_int ev.Runner.outputs)
                outputs;
              Alcotest.(check bool) "seen rendered" true (seen <> None)
            | other -> Alcotest.failf "not a Step: %s" (Trace.render other))
          (Runner.events r) steps);
    test "runner metrics: sent >= delivered, steps match" (fun () ->
        let r, _, _, m = traced_run () in
        Alcotest.(check int) "steps" r.Runner.steps (Metrics.counter_value m "steps");
        Alcotest.(check int) "sent" r.Runner.sent
          (Metrics.counter_value m "messages_sent");
        Alcotest.(check bool) "sent >= delivered" true
          (Metrics.counter_value m "messages_sent"
          >= Metrics.counter_value m "messages_delivered"));
    test "the null sink changes nothing (zero-cost when off)" (fun () ->
        let n = 4 in
        let pattern = pattern ~n [ (2, 8) ] in
        let go sink =
          Runner.run ~pattern ~detector:Perfect.canonical
            ~scheduler:(Scheduler.fair ()) ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            ?sink (Ct_strong.automaton ~proposals)
        in
        let plain = go None and nulled = go (Some Trace.null) in
        Alcotest.(check int) "steps" plain.Runner.steps nulled.Runner.steps;
        Alcotest.(check bool) "same outputs" true
          (plain.Runner.outputs = nulled.Runner.outputs);
        Alcotest.(check bool) "same events" true
          (Runner.events plain = Runner.events nulled));
  ]

(* ---------- netsim + heartbeat + qos invariants ---------- *)

let heartbeat_run ~crashes =
  let n = 4 in
  let pattern = pattern ~n crashes in
  let mem = Trace.memory () in
  let metrics = Metrics.create () in
  let sink = Trace.tee mem (Metrics.sink metrics) in
  let r =
    Netsim.run ~n ~pattern ~model:(Link.Synchronous { delta = 10 }) ~seed:7
      ~horizon:3000 ~sink
      (Heartbeat.node ~sink (Heartbeat.Fixed { period = 20; timeout = 31 }))
  in
  Qos.observe metrics (Qos.analyze r);
  (r, Trace.contents mem, metrics)

let net_tests =
  [
    test "netsim metrics: sent >= delivered, crashes counted once" (fun () ->
        let _, events, m = heartbeat_run ~crashes:[ (3, 700) ] in
        Alcotest.(check bool) "sent >= delivered" true
          (Metrics.counter_value m "messages_sent"
          >= Metrics.counter_value m "messages_delivered");
        Alcotest.(check int) "one crash event" 1
          (List.length
             (List.filter (function Trace.Crash _ -> true | _ -> false) events));
        Alcotest.(check int) "crashes counter" 1 (Metrics.counter_value m "crashes"));
    test "suspicion transitions: events and counter agree" (fun () ->
        let _, events, m = heartbeat_run ~crashes:[ (3, 700) ] in
        let suspect_events =
          List.filter (function Trace.Suspect _ -> true | _ -> false) events
        in
        Alcotest.(check int) "counter = event count"
          (List.length suspect_events)
          (Metrics.counter_value m "suspicion_transitions");
        Alcotest.(check bool) "someone starts suspecting p3" true
          (List.exists
             (function
               | Trace.Suspect { subject = 3; on = true; _ } -> true
               | _ -> false)
             events));
    test "detection latencies only for crashed subjects" (fun () ->
        let _, _, with_crash = heartbeat_run ~crashes:[ (3, 700) ] in
        let _, _, no_crash = heartbeat_run ~crashes:[] in
        let lat = Option.get (Metrics.histogram with_crash "detection_latency") in
        Alcotest.(check bool) "crash run has samples" false
          (Rlfd_obs.Sketch.is_empty lat);
        Alcotest.(check bool) "all non-negative" true
          (Rlfd_obs.Sketch.min_value lat >= 0.);
        Alcotest.(check int) "one observer-crash pair per correct process"
          3 (Rlfd_obs.Sketch.count lat);
        Alcotest.(check int) "failure-free run has none" 0
          (Metrics.histogram_count no_crash "detection_latency");
        Alcotest.(check bool) "undetected fraction recorded" true
          (Metrics.gauge_value with_crash "undetected_fraction" = Some 0.));
  ]

(* ---------- metrics registry ---------- *)

(* Random event lists drawn over every constructor, small fields. *)
let arb_events =
  let open QCheck.Gen in
  let t = int_bound 50 and p = int_range 1 5 in
  let event =
    oneof
      [ map4
          (fun time pid received_from (sent_to, outputs) ->
            Trace.Step { time; pid; received_from; sent_to; outputs; seen = None })
          t p (opt p)
          (pair (list_size (int_bound 4) p)
             (list_size (int_bound 2) (map string_of_int t)));
        map3 (fun time src dst -> Trace.Send { time; src; dst }) t p p;
        map3 (fun time src dst -> Trace.Deliver { time; src; dst }) t p p;
        map3 (fun time src dst -> Trace.Drop { time; src; dst }) t p p;
        map3
          (fun time pid tag -> Trace.Timer_set { time; pid; tag; fires_at = time + 1 })
          t p t;
        map3 (fun time pid tag -> Trace.Timer_fire { time; pid; tag }) t p t;
        map3
          (fun time (observer, subject) on -> Trace.Suspect { time; observer; subject; on })
          t (pair p p) bool;
        map2 (fun time pid -> Trace.Crash { time; pid }) t p;
        map2 (fun time pid -> Trace.Halt { time; pid }) t p;
        map (fun time -> Trace.Violation { time; reason = "r" }) t;
        map2
          (fun time done_ ->
            Trace.Progress
              { time; label = "l"; done_; total = None; rate = 0.; detail = [] })
          t t;
        map
          (fun time ->
            Trace.Qos_snapshot
              { time; label = "l"; suspected = 1; detected = 1; undetected = 0;
                false_episodes = 0; det_p50 = 0.; det_p95 = 0.; det_p99 = 0.;
                msgs = 3; bandwidth = 0. })
          t ]
  in
  QCheck.make
    ~print:(fun es -> String.concat "\n" (List.map Trace.render es))
    (list_size (int_bound 30) event)

(* The meter's counts, recomputed by matching constructors: what each
   event adds to each name, [None] when the event does not touch it.  A
   name is listed iff some event touched it, even by 0. *)
let expected_counts events =
  let counters =
    [ ("steps", function Trace.Step _ -> Some 1 | _ -> None);
      ( "messages_sent",
        function
        | Trace.Step { sent_to; _ } -> Some (List.length sent_to)
        | Trace.Send _ -> Some 1
        | _ -> None );
      ( "messages_delivered",
        function
        | Trace.Step { received_from = Some _; _ } | Trace.Deliver _ -> Some 1
        | _ -> None );
      ( "outputs",
        function Trace.Step { outputs; _ } -> Some (List.length outputs) | _ -> None );
      ("messages_dropped", function Trace.Drop _ -> Some 1 | _ -> None);
      ("timers_set", function Trace.Timer_set _ -> Some 1 | _ -> None);
      ("timers_fired", function Trace.Timer_fire _ -> Some 1 | _ -> None);
      ("crashes", function Trace.Crash _ -> Some 1 | _ -> None);
      ("halts", function Trace.Halt _ -> Some 1 | _ -> None);
      ("suspicion_transitions", function Trace.Suspect _ -> Some 1 | _ -> None) ]
  in
  List.filter_map
    (fun (name, adds) ->
      match List.filter_map adds events with
      | [] -> None
      | amounts -> Some (name, List.fold_left ( + ) 0 amounts))
    counters
  |> List.sort compare

let metrics_tests =
  [
    qtest ~count:300 "the meter counts each event kind; an absent kind leaves no key"
      arb_events (fun events ->
        let m = Metrics.create () in
        let meter = Metrics.sink m in
        List.iter (Trace.emit meter) events;
        List.map (fun name -> (name, Metrics.counter_value m name)) (Metrics.names m)
        = expected_counts events);
    test "counters accumulate; absent names read 0" (fun () ->
        let m = Metrics.create () in
        Alcotest.(check int) "absent" 0 (Metrics.counter_value m "x");
        Metrics.incr m "x";
        Metrics.incr ~by:4 m "x";
        Alcotest.(check int) "5" 5 (Metrics.counter_value m "x"));
    test "gauges are last-write-wins" (fun () ->
        let m = Metrics.create () in
        Alcotest.(check (option (float 0.))) "absent" None (Metrics.gauge_value m "g");
        Metrics.set_gauge m "g" 1.5;
        Metrics.set_gauge m "g" 2.5;
        Alcotest.(check (option (float 0.))) "last" (Some 2.5)
          (Metrics.gauge_value m "g"));
    test "histograms fold samples into a sketch: exact count/sum/extremes"
      (fun () ->
        let m = Metrics.create () in
        List.iter (Metrics.observe m "h") [ 3.; 1.; 2. ];
        let s = Option.get (Metrics.histogram m "h") in
        Alcotest.(check int) "count" 3 (Sketch.count s);
        Alcotest.(check (float 1e-9)) "sum" 6. (Sketch.sum s);
        Alcotest.(check (float 1e-9)) "min" 1. (Sketch.min_value s);
        Alcotest.(check (float 1e-9)) "max" 3. (Sketch.max_value s));
    test "reusing a name with a different kind raises" (fun () ->
        let m = Metrics.create () in
        Metrics.incr m "x";
        Alcotest.check_raises "counter as histogram"
          (Invalid_argument "Metrics: \"x\" is a counter, used as a histogram")
          (fun () -> Metrics.observe m "x" 1.));
    test "to_json exposes the three sections with sketch summaries" (fun () ->
        let m = Metrics.create () in
        Metrics.incr ~by:2 m "c";
        Metrics.set_gauge m "g" 0.5;
        List.iter (Metrics.observe m "h") [ 1.; 2.; 3.; 4. ];
        let j = Metrics.to_json m in
        let get path =
          List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
        in
        Alcotest.(check (option int)) "counter" (Some 2)
          (Option.bind (get [ "counters"; "c" ]) Json.to_int_opt);
        Alcotest.(check bool) "gauge" true
          (Option.bind (get [ "gauges"; "g" ]) Json.to_float_opt = Some 0.5);
        Alcotest.(check (option int)) "hist count" (Some 4)
          (Option.bind (get [ "histograms"; "h"; "count" ]) Json.to_int_opt);
        Alcotest.(check bool) "hist sum" true
          (Option.bind (get [ "histograms"; "h"; "sum" ]) Json.to_float_opt
          = Some 10.);
        Alcotest.(check bool) "one bucket per distinct sample" true
          (match Option.bind (get [ "histograms"; "h"; "buckets" ]) Json.to_list_opt with
          | Some l -> List.length l = 4
          | None -> false);
        let pct name =
          Option.get
            (Option.bind (get [ "histograms"; "h"; name ]) Json.to_float_opt)
        in
        let eps = Rlfd_obs.Sketch.relative_error in
        Alcotest.(check bool) "p50 within sketch error" true
          (Float.abs (pct "p50" -. 2.) <= 2. *. eps);
        Alcotest.(check bool) "p95 within sketch error" true
          (Float.abs (pct "p95" -. 4.) <= 4. *. eps);
        Alcotest.(check bool) "p99 within sketch error" true
          (Float.abs (pct "p99" -. 4.) <= 4. *. eps);
        let bounds name =
          match Option.bind (get [ "histograms"; "h"; name ]) Json.to_list_opt with
          | Some [ lo; hi ] ->
            (Option.get (Json.to_float_opt lo), Option.get (Json.to_float_opt hi))
          | _ -> Alcotest.failf "missing %s" name
        in
        let lo, hi = bounds "p50_bounds" in
        Alcotest.(check bool) "p50 bounds bracket the exact value" true
          (lo <= 2. && 2. <= hi);
        let lo, hi = bounds "p99_bounds" in
        Alcotest.(check bool) "p99 bounds bracket the exact value" true
          (lo <= 4. && 4. <= hi));
    test "names are sorted; is_empty flips on first use" (fun () ->
        let m = Metrics.create () in
        Alcotest.(check bool) "empty" true (Metrics.is_empty m);
        Metrics.incr m "zz";
        Metrics.incr m "aa";
        Alcotest.(check (list string)) "sorted" [ "aa"; "zz" ] (Metrics.names m));
  ]

(* ---------- quantile sketches ---------- *)

let sketch_of xs =
  let s = Sketch.create () in
  List.iter (Sketch.add s) xs;
  s

(* Positive float samples spanning several orders of magnitude. *)
let arb_samples =
  let open QCheck in
  let gen =
    Gen.list_size (Gen.int_range 1 60)
      (Gen.map2
         (fun mantissa scale -> mantissa *. (10. ** float_of_int scale))
         (Gen.float_range 0.1 10.) (Gen.int_range (-2) 4))
  in
  make ~print:Print.(list float) gen

let sketch_tests =
  [
    test "empty sketch: percentile raises, count 0" (fun () ->
        let s = Sketch.create () in
        Alcotest.(check int) "count" 0 (Sketch.count s);
        Alcotest.(check bool) "empty" true (Sketch.is_empty s);
        Alcotest.check_raises "percentile"
          (Invalid_argument "Sketch.percentile: empty sketch") (fun () ->
            ignore (Sketch.percentile s 0.5)));
    test "zero and negative samples land in ordered buckets" (fun () ->
        let s = sketch_of [ -3.; 0.; 5.; 0.; -0.5 ] in
        Alcotest.(check int) "count" 5 (Sketch.count s);
        Alcotest.(check (float 1e-9)) "min" (-3.) (Sketch.min_value s);
        Alcotest.(check (float 1e-9)) "max" 5. (Sketch.max_value s);
        let bucket_values = List.map (fun (lo, _, _) -> lo) (Sketch.buckets s) in
        Alcotest.(check bool) "ascending" true
          (List.sort compare bucket_values = bucket_values);
        (* the median of [-3; -0.5; 0; 0; 5] is the zero bucket: exact *)
        Alcotest.(check (float 1e-9)) "p50 exact at zero" 0.
          (Sketch.percentile s 0.5));
    qtest ~count:200 "percentiles are within the advertised relative error"
      arb_samples
      (fun xs ->
        let s = sketch_of xs in
        List.for_all
          (fun q ->
            let approx = Sketch.percentile s q in
            let exact = Stats.percentile xs q in
            Float.abs (approx -. exact) <= Sketch.relative_error *. exact
            +. 1e-9)
          [ 0.; 0.25; 0.5; 0.75; 0.95; 0.99; 1. ]);
    qtest ~count:200 "percentile bounds bracket the exact nearest-rank value"
      arb_samples
      (fun xs ->
        let s = sketch_of xs in
        List.for_all
          (fun q ->
            let lo, hi = Sketch.percentile_bounds s q in
            let exact = Stats.percentile xs q in
            let slack = 1e-9 +. (1e-12 *. Float.abs exact) in
            lo <= exact +. slack && exact <= hi +. slack)
          [ 0.; 0.5; 0.95; 0.99; 1. ]);
    qtest ~count:200 "merge is exact: sketch xs ++ sketch ys = sketch (xs @ ys)"
      QCheck.(pair arb_samples arb_samples)
      (fun (xs, ys) ->
        let merged = sketch_of xs in
        Sketch.merge ~into:merged (sketch_of ys);
        Sketch.equal merged (sketch_of (xs @ ys)));
    qtest ~count:200 "merge is commutative"
      QCheck.(pair arb_samples arb_samples)
      (fun (xs, ys) ->
        let ab = sketch_of xs and ba = sketch_of ys in
        Sketch.merge ~into:ab (sketch_of ys);
        Sketch.merge ~into:ba (sketch_of xs);
        (* float sums may differ in the last ulp across orders; counts,
           extremes and buckets must not *)
        Sketch.count ab = Sketch.count ba
        && Sketch.buckets ab = Sketch.buckets ba
        && Sketch.min_value ab = Sketch.min_value ba
        && Sketch.max_value ab = Sketch.max_value ba
        && Float.abs (Sketch.sum ab -. Sketch.sum ba)
           <= 1e-9 *. Float.abs (Sketch.sum ab));
    qtest ~count:200 "merge is associative"
      QCheck.(triple arb_samples arb_samples arb_samples)
      (fun (xs, ys, zs) ->
        let left = sketch_of xs in
        Sketch.merge ~into:left (sketch_of ys);
        Sketch.merge ~into:left (sketch_of zs);
        let inner = sketch_of ys in
        Sketch.merge ~into:inner (sketch_of zs);
        let right = sketch_of xs in
        Sketch.merge ~into:right inner;
        Sketch.count left = Sketch.count right
        && Sketch.buckets left = Sketch.buckets right
        && Float.abs (Sketch.sum left -. Sketch.sum right)
           <= 1e-9 *. Float.abs (Sketch.sum left));
    test "copy is independent of the original" (fun () ->
        let s = sketch_of [ 1.; 2. ] in
        let c = Sketch.copy s in
        Sketch.add c 3.;
        Alcotest.(check int) "original untouched" 2 (Sketch.count s);
        Alcotest.(check int) "copy grew" 3 (Sketch.count c));
    test "memory stays bounded: a million samples, few buckets" (fun () ->
        let s = Sketch.create () in
        for i = 1 to 1_000_000 do
          Sketch.add s (float_of_int (i mod 10_000))
        done;
        Alcotest.(check int) "count" 1_000_000 (Sketch.count s);
        Alcotest.(check bool) "buckets bounded by dynamic range" true
          (List.length (Sketch.buckets s) < 600));
  ]

(* ---------- timeline: the runtime observatory ---------- *)

module Timeline = Rlfd_obs.Timeline

(* One domain recording two [a] spans and one [b] span, then an event. *)
let aba_artifact () =
  let tl = Timeline.create ~label:"u" () in
  let r = Timeline.recorder tl "d" in
  let work () = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
  Timeline.span r "a" work;
  Timeline.span r "b" work;
  Timeline.span r "a" work;
  Timeline.event r "late";
  Timeline.merge tl

let timeline_tests =
  [
    test "monotonic clock never decreases" (fun () ->
        let prev = ref (Profile.monotonic_ns ()) in
        for _ = 1 to 1000 do
          let t = Profile.monotonic_ns () in
          if Int64.compare t !prev < 0 then
            Alcotest.fail "monotonic_ns went backwards";
          prev := t
        done;
        let a = Profile.now () in
        let b = Profile.now () in
        Alcotest.(check bool) "now nondecreasing" true (b >= a));
    test "overflow drops the oldest records, counted, never silent" (fun () ->
        let tl = Timeline.create ~capacity:4 ~label:"ovf" () in
        let r = Timeline.recorder tl "d" in
        for i = 1 to 10 do
          Timeline.event r ~tag:i "e"
        done;
        Alcotest.(check int) "recorder dropped" 6 (Timeline.dropped r);
        let a = Timeline.merge tl in
        Alcotest.(check int) "artifact dropped" 6 a.Timeline.a_dropped;
        match a.Timeline.a_domains with
        | [ d ] ->
          Alcotest.(check int) "domain dropped" 6 d.Timeline.dom_dropped;
          Alcotest.(check (list int)) "newest 4 survive" [ 7; 8; 9; 10 ]
            (List.map
               (fun (e : Timeline.event_rec) -> e.ev_tag)
               d.Timeline.dom_events)
        | _ -> Alcotest.fail "expected one domain");
    qtest ~count:100 "span nesting is well-formed for any call tree"
      QCheck.(small_list (int_bound 2))
      (fun shape ->
        (* interpret the list as a tree: each entry spawns a span with
           that many children one level deeper.  Depth and width are
           capped so the tree always fits the ring (no drops: a dropped
           record would legitimately break the count below). *)
        let shape = List.filteri (fun i _ -> i < 5) shape in
        let tl = Timeline.create ~capacity:4096 ~label:"nest" () in
        let r = Timeline.recorder tl "d" in
        let rec build depth fanouts =
          match fanouts with
          | [] -> 0
          | f :: rest ->
            Timeline.span r ~tag:depth "s" (fun () ->
                let inner =
                  if depth < 5 then build (depth + 1) (List.init f (fun _ -> f))
                  else 0
                in
                inner + 1)
            + build depth rest
        in
        let count = build 0 shape in
        let a = Timeline.merge tl in
        let spans =
          List.concat_map (fun d -> d.Timeline.dom_spans) a.Timeline.a_domains
        in
        (* every span closed: one record per call, and each span's
           interval lies inside its chronological depth-(d-1) parent *)
        List.length spans = count
        && List.for_all
             (fun (s : Timeline.span_rec) ->
               s.sp_depth = 0
               || List.exists
                    (fun (p : Timeline.span_rec) ->
                      p.sp_depth = s.sp_depth - 1
                      && p.sp_t0 <= s.sp_t0 +. 1e-12
                      && s.sp_t0 +. s.sp_dur <= p.sp_t0 +. p.sp_dur +. 1e-12)
                    spans)
             spans);
    test "unbalanced leave and over-deep enter raise" (fun () ->
        let tl = Timeline.create ~label:"bad" () in
        let r = Timeline.recorder tl "d" in
        (try
           Timeline.leave r;
           Alcotest.fail "leave with no open span should raise"
         with Invalid_argument _ -> ());
        try
          for _ = 1 to 65 do
            Timeline.enter r "deep"
          done;
          Alcotest.fail "65-deep nesting should raise"
        with Invalid_argument _ -> ());
    test "null collector and recorder are inert" (fun () ->
        Alcotest.(check bool) "null is null" true (Timeline.is_null Timeline.null);
        let r = Timeline.recorder Timeline.null "x" in
        Alcotest.(check bool) "null recorder" true (Timeline.is_null_recorder r);
        Timeline.event r "e";
        Timeline.span r "s" (fun () -> ());
        Timeline.record_span r "p" ~dur_s:1.0;
        Alcotest.(check int) "nothing dropped" 0 (Timeline.dropped r);
        let a = Timeline.merge Timeline.null in
        Alcotest.(check int) "no domains" 0 (List.length a.Timeline.a_domains));
    test "a raising thunk still closes its span" (fun () ->
        let tl = Timeline.create ~label:"exn" () in
        let r = Timeline.recorder tl "d" in
        (try Timeline.span r "boom" (fun () -> failwith "no")
         with Failure _ -> ());
        let a = Timeline.merge tl in
        match a.Timeline.a_domains with
        | [ d ] ->
          Alcotest.(check int) "one span" 1 (List.length d.Timeline.dom_spans)
        | _ -> Alcotest.fail "expected one domain");
    test "artifact JSON is versioned" (fun () ->
        let tl = Timeline.create ~label:"v" () in
        let r = Timeline.recorder tl "d" in
        Timeline.span r "s" (fun () -> ());
        let j = Timeline.to_json (Timeline.merge tl) in
        Alcotest.(check (option int)) "timeline_version" (Some Timeline.version)
          (Option.bind (Json.member "timeline_version" j) Json.to_int_opt));
    test "normalized view erases time and pools across domains" (fun () ->
        let tl = Timeline.create ~label:"n" () in
        let r1 = Timeline.recorder tl "a" in
        let r2 = Timeline.recorder tl "b" in
        Timeline.span r2 ~tag:2 "s" (fun () -> ());
        Timeline.span r1 ~tag:1 "s" (fun () -> ());
        Timeline.event r1 "lifecycle";
        let j =
          Timeline.normalized_json ~exclude:[ "lifecycle" ] (Timeline.merge tl)
        in
        let rendered = Json.to_string j in
        Alcotest.(check bool) "no domain labels" false
          (contains_substring ~needle:"\"a\"" rendered);
        Alcotest.(check bool) "excluded name gone" false
          (contains_substring ~needle:"lifecycle" rendered);
        Alcotest.(check bool) "no timestamps" false
          (contains_substring ~needle:"t0_s" rendered));
    test "utilization decomposition: busy + idle = window" (fun () ->
        List.iter
          (fun (_, u) ->
            Alcotest.(check (float 1e-9))
              "busy + idle = window" u.Timeline.u_window
              (u.Timeline.u_busy +. u.Timeline.u_idle);
            Alcotest.(check bool) "gc estimate bounded" true
              (u.Timeline.u_gc_est >= 0. && u.Timeline.u_gc_est <= u.Timeline.u_busy +. 1e-12))
          (Timeline.utilization (aba_artifact ())));
    test "utilization counts calls per name in first-use order" (fun () ->
        List.iter
          (fun (_, u) ->
            Alcotest.(check (list (pair string int)))
              "calls per name, first-use order" [ ("a", 2); ("b", 1) ]
              (List.map (fun (name, (calls, _)) -> (name, calls)) u.Timeline.u_by_name))
          (Timeline.utilization (aba_artifact ())));
    test "utilization totals per name sum the span durations" (fun () ->
        let art = aba_artifact () in
        let spans = List.concat_map (fun d -> d.Timeline.dom_spans) art.a_domains in
        let sum name =
          List.fold_left
            (fun acc (s : Timeline.span_rec) ->
              if s.sp_name = name then acc +. s.sp_dur else acc)
            0. spans
        in
        List.iter
          (fun (_, u) ->
            Alcotest.(check int) "both names listed" 2 (List.length u.Timeline.u_by_name);
            List.iter
              (fun (name, (_, total)) ->
                Alcotest.(check (float 1e-12)) ("total of " ^ name) (sum name)
                  total)
              u.Timeline.u_by_name)
          (Timeline.utilization art));
    test "folded stacks carry domain-rooted paths and microseconds" (fun () ->
        let tl = Timeline.create ~label:"f" () in
        let r = Timeline.recorder tl "dom" in
        Timeline.span r "outer" (fun () -> Timeline.span r "inner" (fun () -> ()));
        let lines = Timeline.folded (Timeline.merge tl) in
        Alcotest.(check int) "two stacks" 2 (List.length lines);
        Alcotest.(check bool) "nested stack present" true
          (List.exists
             (fun l ->
               contains_substring ~needle:"dom;outer;inner " l)
             lines);
        List.iter
          (fun l ->
            match String.rindex_opt l ' ' with
            | None -> Alcotest.fail "no value field"
            | Some i ->
              let v =
                float_of_string (String.sub l (i + 1) (String.length l - i - 1))
              in
              Alcotest.(check bool) "value >= 0" true (v >= 0.))
          lines);
    test "gc counters appear on spans that allocate" (fun () ->
        let tl = Timeline.create ~label:"gc" () in
        let r = Timeline.recorder tl "d" in
        Timeline.span r "alloc" (fun () ->
            let sink = ref [] in
            for i = 1 to 200_000 do
              sink := i :: !sink
            done;
            ignore (Sys.opaque_identity !sink));
        let a = Timeline.merge tl in
        let s =
          List.hd (List.hd a.Timeline.a_domains).Timeline.dom_spans
        in
        Alcotest.(check bool) "allocated words observed" true
          (s.Timeline.sp_alloc_w > 0.);
        Alcotest.(check bool) "minor collections observed" true
          (s.Timeline.sp_minor > 0));
    test "metrics gc gauges land in the registry" (fun () ->
        let m = Metrics.create () in
        Metrics.observe_gc m;
        List.iter
          (fun g ->
            match Metrics.gauge_value m g with
            | Some v -> Alcotest.(check bool) (g ^ " >= 0") true (v >= 0.)
            | None -> Alcotest.fail (g ^ " missing"))
          [ "gc_minor_collections"; "gc_major_collections";
            "gc_promoted_words"; "gc_heap_words"; "gc_minor_words" ]);
  ]

let () =
  Alcotest.run "obs"
    [
      suite "json" json_tests;
      suite "trace" trace_tests;
      suite "runner-roundtrip" run_tests;
      suite "netsim-invariants" net_tests;
      suite "metrics" metrics_tests;
      suite "sketch" sketch_tests;
      suite "timeline" timeline_tests;
    ]

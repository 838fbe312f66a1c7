(* Flight recorder: record -> replay round-trips, schedule shrinking, and
   the run-kind recording path through Scheduler.replay. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Helpers
module Recorder = Rlfd_obs.Recorder

let n = 3

let pp_seen = Format.asprintf "%a" Pid.Set.pp

let agreement = Explore.agreement_check ~equal:Int.equal

let safety =
  Explore.both agreement (Explore.validity_check ~n ~proposals ~equal:Int.equal)

let correct_restricted pattern =
  let faulty = Pattern.faulty pattern in
  fun outputs ->
    agreement (List.filter (fun (p, _) -> not (Pid.Set.mem p faulty)) outputs)

(* A deterministic pump schedule: lambda rounds interleaved with wildcard
   receives (payload "" = match any in-flight message from that sender).
   [execute] drops what it cannot honour, so this drives any scope; its
   [executed] normalization is then fully self-contained. *)
let pump_schedule ~rounds =
  let ps = List.init n (fun i -> Pid.of_int (i + 1)) in
  List.concat
    (List.init rounds (fun _ ->
         List.map (fun p -> (p, None)) ps
         @ List.concat_map
             (fun p ->
               List.filter_map
                 (fun src ->
                   if Pid.equal p src then None else Some (p, Some (src, "")))
                 ps)
             ps))

let scope_json = Rlfd_obs.Json.Obj [ ("test", Rlfd_obs.Json.String "replay") ]

(* The exhaustive portfolio of test_explore as (name, pattern, executor,
   check); the executor closures hide each automaton's existential
   state/message types, so the list is well-typed. *)
let portfolio =
  [ ( "ct-strong+P failure-free", Pattern.failure_free ~n,
      (fun ~pattern ~check ~schedule ->
        Replay.execute ~pp_output:string_of_int ~pp_seen ~pattern
          ~detector:Perfect.canonical ~check ~schedule
          (Ct_strong.automaton ~proposals)),
      safety );
    ( "ct-strong+P crash", pattern ~n [ (1, 2) ],
      (fun ~pattern ~check ~schedule ->
        Replay.execute ~pp_output:string_of_int ~pp_seen ~pattern
          ~detector:Perfect.canonical ~check ~schedule
          (Ct_strong.automaton ~proposals)),
      safety );
    ( "rank+P< crash", pattern ~n [ (1, 1) ],
      (fun ~pattern ~check ~schedule ->
        Replay.execute ~pp_output:string_of_int ~pp_seen ~pattern
          ~detector:Partial_perfect.canonical ~check ~schedule
          (Rank_consensus.automaton ~proposals)),
      correct_restricted (pattern ~n [ (1, 1) ]) );
    ( "marabout+marabout crash", pattern ~n [ (1, 1) ],
      (fun ~pattern ~check ~schedule ->
        Replay.execute ~pp_output:string_of_int ~pp_seen ~pattern
          ~detector:Marabout.canonical ~check ~schedule
          (Marabout_consensus.automaton ~proposals)),
      safety ) ]

let roundtrip_artifact a =
  match Recorder.of_lines (Recorder.to_lines a) with
  | Ok a' -> a'
  | Error msg -> Alcotest.failf "artifact does not round-trip: %s" msg

let portfolio_tests =
  List.map
    (fun (name, pattern, execute, check) ->
      test (name ^ ": record->replay is byte-identical") (fun () ->
          let schedule = pump_schedule ~rounds:3 in
          let e = execute ~pattern ~check ~schedule in
          Alcotest.(check bool) "pump executed something" true (e.Replay.steps <> []);
          (* determinism of the executor itself *)
          let e2 = execute ~pattern ~check ~schedule in
          Alcotest.(check string) "final states equal" e.Replay.final e2.Replay.final;
          Alcotest.(check (list string)) "decision sets equal" e.Replay.decisions
            e2.Replay.decisions;
          (* the executed normalization is self-contained: re-running it drops
             nothing and reaches the same canonical outcome *)
          let a = Replay.to_artifact ~scope:scope_json e in
          let a = roundtrip_artifact a in
          let schedule' =
            match Replay.schedule_of_artifact a with
            | Ok s -> s
            | Error msg -> Alcotest.fail msg
          in
          let e' = execute ~pattern ~check ~schedule:schedule' in
          Alcotest.(check int) "replay drops nothing" 0 e'.Replay.dropped;
          Alcotest.(check (list string)) "no mismatches" []
            (Replay.check_against a e')))
    portfolio

(* ---------- explorer violations through the recorder ---------- *)

let explore_violations () =
  let pattern = pattern ~n [ (1, 1) ] in
  let report =
    Explore.run ~max_steps:10 ~max_nodes:400_000 ~capture:true ~pattern
      ~detector:Partial_perfect.canonical ~check:agreement
      (Rank_consensus.automaton ~proposals)
  in
  (pattern, report)

let execute_rank ~pattern ~schedule =
  Replay.execute ~pp_output:string_of_int ~pp_seen ~pattern
    ~detector:Partial_perfect.canonical ~check:agreement ~schedule
    (Rank_consensus.automaton ~proposals)

let violation_tests =
  [
    test "every captured violation replays to the recorded verdict" (fun () ->
        let pattern, report = explore_violations () in
        Alcotest.(check bool) "witnesses found" true
          (report.Explore.violations <> []);
        (* The explorer reports every violating node it visits, including
           descendants of earlier violations; the replayer reports the first
           step at which the check fires.  They agree exactly on the first
           witness, and on later ones the replay can only fire earlier. *)
        List.iteri
          (fun i v ->
            let e = execute_rank ~pattern ~schedule:v.Explore.schedule in
            Alcotest.(check int) "nothing dropped" 0 e.Replay.dropped;
            match e.Replay.violation with
            | None -> Alcotest.fail "replay lost the violation"
            | Some (at, reason) ->
              Alcotest.(check bool) "fires no later than recorded" true
                (at <= v.Explore.at_step);
              if i = 0 then begin
                Alcotest.(check int) "same step" v.Explore.at_step at;
                Alcotest.(check string) "same reason" v.Explore.reason reason
              end)
          report.Explore.violations);
    test "a violation artifact survives save/load and verifies" (fun () ->
        let pattern, report = explore_violations () in
        let v = List.hd report.Explore.violations in
        let e = execute_rank ~pattern ~schedule:v.Explore.schedule in
        let a = Replay.to_artifact ~scope:scope_json e in
        let file = Filename.temp_file "rlfd_replay" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Recorder.save file a;
            let a' =
              match Recorder.load file with
              | Ok a -> a
              | Error msg -> Alcotest.fail msg
            in
            Alcotest.(check (list string)) "identical lines"
              (Recorder.to_lines a) (Recorder.to_lines a');
            let schedule =
              match Replay.schedule_of_artifact a' with
              | Ok s -> s
              | Error msg -> Alcotest.fail msg
            in
            Alcotest.(check (list string)) "replay verifies" []
              (Replay.check_against a' (execute_rank ~pattern ~schedule))));
    test "capture changes neither the verdicts nor the traversal" (fun () ->
        let pattern = pattern ~n [ (1, 1) ] in
        let explore ~capture =
          Explore.run ~max_steps:10 ~max_nodes:400_000 ~capture ~pattern
            ~detector:Partial_perfect.canonical ~check:agreement
            (Rank_consensus.automaton ~proposals)
        in
        let off = explore ~capture:false and on = explore ~capture:true in
        Alcotest.(check int) "same nodes" off.Explore.nodes_explored
          on.Explore.nodes_explored;
        Alcotest.(check int) "same violation count"
          (List.length off.Explore.violations)
          (List.length on.Explore.violations);
        Alcotest.(check (list string)) "same decision states"
          off.Explore.decision_states on.Explore.decision_states);
  ]

(* ---------- shrinking ---------- *)

let shrink_rank ~pattern ~schedule =
  Replay.shrink ~pp_output:string_of_int ~pp_seen ~pattern
    ~detector:Partial_perfect.canonical ~check:agreement ~schedule
    (Rank_consensus.automaton ~proposals)

let shrink_tests =
  [
    test "shrunk schedules still violate and never grow" (fun () ->
        let pattern, report = explore_violations () in
        List.iter
          (fun v ->
            let s = shrink_rank ~pattern ~schedule:v.Explore.schedule in
            Alcotest.(check bool) "no longer than the input" true
              (List.length s.Replay.schedule <= List.length v.Explore.schedule);
            Alcotest.(check bool) "still violates" true
              (s.Replay.execution.Replay.violation <> None);
            (* and the result is its own fixed point: re-executing it drops
               nothing and still violates *)
            let e = execute_rank ~pattern ~schedule:s.Replay.schedule in
            Alcotest.(check int) "self-contained" 0 e.Replay.dropped;
            Alcotest.(check bool) "violation preserved" true
              (e.Replay.violation <> None))
          report.Explore.violations);
    test "the shrunk result is 1-minimal" (fun () ->
        let pattern, report = explore_violations () in
        let v = List.hd report.Explore.violations in
        let s = shrink_rank ~pattern ~schedule:v.Explore.schedule in
        let len = List.length s.Replay.schedule in
        for drop = 0 to len - 1 do
          let candidate =
            List.filteri (fun i _ -> i <> drop) s.Replay.schedule
          in
          let e = execute_rank ~pattern ~schedule:candidate in
          Alcotest.(check bool)
            (Printf.sprintf "dropping step %d breaks the violation" drop)
            true
            (e.Replay.violation = None
            || List.length e.Replay.executed >= len)
        done);
    test "shrinking a non-violating schedule is rejected" (fun () ->
        let pattern = Pattern.failure_free ~n in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Replay.shrink: the schedule does not violate")
          (fun () ->
            ignore
              (Replay.shrink ~pp_output:string_of_int ~pp_seen ~pattern
                 ~detector:Perfect.canonical ~check:safety
                 ~schedule:(pump_schedule ~rounds:1)
                 (Ct_strong.automaton ~proposals))));
    qtest ~count:60 "execute is total on arbitrary subsequences"
      QCheck.(list_of_size (Gen.int_bound 30) small_nat)
      (fun mask ->
        let pattern = pattern ~n [ (1, 1) ] in
        let base =
          (execute_rank ~pattern ~schedule:(pump_schedule ~rounds:2))
            .Replay.executed
        in
        (* a subsequence of a clean schedule, led by an entry for a
           process outside 1..n: what cannot be honoured is dropped *)
        let sub =
          (Pid.of_int (n + 1), None)
          :: List.filteri
               (fun i _ -> List.exists (fun k -> k mod List.length base = i) mask)
               base
        in
        let e = execute_rank ~pattern ~schedule:sub in
        List.length e.Replay.executed + e.Replay.dropped = List.length sub
        && List.length e.Replay.executed <= List.length sub);
  ]

(* ---------- run-kind artifacts: Scheduler.replay round-trip ---------- *)

let run_kind_tests =
  [
    test "a recorded run re-executes byte-identically under Scheduler.replay"
      (fun () ->
        let n = 4 in
        let pattern = pattern ~n [ (2, 40) ] in
        let record scheduler =
          let detector, queries =
            Detector.taped ~pp:pp_seen Perfect.canonical
          in
          let r =
            Runner.run ~pattern ~detector ~scheduler ~horizon:(time 6000)
              ~until:(Runner.stop_when_all_correct_output pattern)
              (Ct_strong.automaton ~proposals)
          in
          Replay.runner_artifact ~scope:scope_json ~pp_output:string_of_int
            ~queries:(queries ()) r
        in
        let a = record (Scheduler.fair ()) in
        let a = roundtrip_artifact a in
        let a' = record (Scheduler.replay (Result.get_ok (Replay.replay_entries a))) in
        Alcotest.(check (list string)) "byte-identical artifact"
          (Recorder.to_lines a) (Recorder.to_lines a'));
    test "replay entries carry exact message identities" (fun () ->
        let pattern = pattern ~n [ (1, 30) ] in
        let detector, queries = Detector.taped ~pp:pp_seen Perfect.canonical in
        let r =
          Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
            ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_strong.automaton ~proposals)
        in
        let a =
          Replay.runner_artifact ~scope:scope_json ~pp_output:string_of_int
            ~queries:(queries ()) r
        in
        let entries = Result.get_ok (Replay.replay_entries a) in
        Alcotest.(check int) "one entry per step" r.Runner.steps
          (List.length entries);
        let receives =
          List.length (List.filter (fun (_, _, m) -> m <> None) entries)
        in
        Alcotest.(check int) "receive count matches the run" r.Runner.delivered
          receives);
    qtest ~count:40 "Replay re-executes a fair Runner run step for step"
      (arb_pattern ~n:4 ~horizon:60)
      (fun pattern ->
        (* Both drivers take the Runner's step: under [fair], which always
           delivers the oldest message and never idles while a process is
           alive, a run's events read as a schedule replay, at the same
           times, to the same processes, message ids and outputs.  Crashes
           make the runs send to crashed processes: those sends keep their
           ids on both sides, and are received by no one. *)
        let algo = Ct_strong.automaton ~proposals in
        let r = run_consensus ~detector:Perfect.canonical ~pattern algo in
        let events = Runner.events r in
        let schedule =
          List.map
            (fun (ev : _ Runner.event) ->
              (ev.pid, Option.map (fun src -> (src, "")) ev.received))
            events
        in
        let e =
          Replay.execute ~pp_output:string_of_int ~pattern
            ~detector:Perfect.canonical ~check:(fun _ -> None) ~schedule algo
        in
        let of_event (ev : _ Runner.event) =
          ( ev.pid,
            Option.map (fun src -> (src, Option.get ev.received_id)) ev.received,
            List.combine ev.sent_to ev.sent_ids,
            List.map string_of_int ev.outputs )
        in
        let of_step (s : Replay.step_info) = (s.pid, s.received, s.sent, s.outputs) in
        r.Runner.idle_ticks = 0
        && e.Replay.dropped = 0
        && List.map of_event events = List.map of_step e.Replay.steps
        && List.map (fun (t, p, o) -> (Time.to_int t, p, o)) r.Runner.outputs
           = e.Replay.outputs);
  ]

(* ---------- artifacts recorded by an earlier build ---------- *)

(* Three artifacts written by [fdsim --record] before messages to crashed
   processes stopped being buffered, so that a change to the step cannot
   silently change what a recording means: tier-1 otherwise records and
   replays with the same code.  Each names its scope (fdsim's workload,
   proposals 100 + pid, detectors seeded 2002):
   - explore_rank: explore --algo rank --fd "P<" --crash 1@1
     --max-steps 10 --canon --por;
   - explore_ct_strong: explore --algo ct-strong --fd ev-S-paranoid
     --crash 2@1 --max-steps 9, whose final state holds messages to the
     crashed p2;
   - run_ct_strong: run --algo ct-strong --fd P -n 4 --crash 2@40. *)
let fdsim_proposals p = 100 + Pid.to_int p

let load_fixture name =
  match Recorder.load (Filename.concat "fixtures" name) with
  | Ok a -> a
  | Error msg -> Alcotest.failf "%s: %s" name msg

let explore_fixture name ~pattern ~detector algo =
  test (name ^ " replays byte-identical") (fun () ->
      let a = load_fixture name in
      let check =
        Explore.both agreement
          (Explore.validity_check ~n ~proposals:fdsim_proposals ~equal:Int.equal)
      in
      let schedule = Result.get_ok (Replay.schedule_of_artifact a) in
      let e =
        Replay.execute ~pp_output:string_of_int ~pp_seen ~pattern ~detector
          ~check ~schedule algo
      in
      Alcotest.(check int) "nothing dropped" 0 e.Replay.dropped;
      Alcotest.(check (list string)) "no mismatches" [] (Replay.check_against a e))

let fixture_tests =
  [
    explore_fixture "explore_rank.jsonl" ~pattern:(pattern ~n [ (1, 1) ])
      ~detector:Partial_perfect.canonical
      (Rank_consensus.automaton ~proposals:fdsim_proposals);
    explore_fixture "explore_ct_strong.jsonl" ~pattern:(pattern ~n [ (2, 1) ])
      ~detector:(Ev_strong.paranoid ~stabilization:(time 400))
      (Ct_strong.automaton ~proposals:fdsim_proposals);
    test "run_ct_strong.jsonl replays byte-identical" (fun () ->
        let a = load_fixture "run_ct_strong.jsonl" in
        let pattern = pattern ~n:4 [ (2, 40) ] in
        let detector, queries = Detector.taped ~pp:pp_seen Perfect.canonical in
        let r =
          Runner.run ~pattern ~detector
            ~scheduler:(Scheduler.replay (Result.get_ok (Replay.replay_entries a)))
            ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_strong.automaton ~proposals:fdsim_proposals)
        in
        let again =
          Replay.runner_artifact ~scope:a.Recorder.scope ~pp_output:string_of_int
            ~queries:(queries ()) r
        in
        Alcotest.(check (list string)) "byte-identical artifact"
          (Recorder.to_lines a) (Recorder.to_lines again));
  ]

(* ---------- recorder codec edges ---------- *)

(* A valid Explore-kind artifact: the first rank+P< witness, re-executed. *)
let witness_lines =
  let pattern, report = explore_violations () in
  let v = List.hd report.Explore.violations in
  Recorder.to_lines
    (Replay.to_artifact ~scope:scope_json
       (execute_rank ~pattern ~schedule:v.Explore.schedule))

let codec_tests =
  [
    qtest ~count:100 "hex encode/decode round-trips arbitrary bytes"
      QCheck.string
      (fun s -> Recorder.hex_decode (Recorder.hex_encode s) = Ok s);
    test "of_lines rejects foreign and corrupt headers" (fun () ->
        List.iter
          (fun lines ->
            match Recorder.of_lines lines with
            | Ok _ ->
              Alcotest.failf "accepted %s" (String.concat "|" lines)
            | Error _ -> ())
          [ [];
            [ {|{"flight":"other","schema_version":1,"kind":"run","scope":{}}|} ];
            [ {|{"flight":"rlfd","schema_version":99,"kind":"run","scope":{}}|} ];
            [ {|{"flight":"rlfd","schema_version":1,"kind":"run","scope":{}}|} ]
            (* no outcome line *) ]);
    test "hex_decode rejects odd length and non-hex digits" (fun () ->
        Alcotest.(check bool) "odd" true
          (Result.is_error (Recorder.hex_decode "abc"));
        Alcotest.(check bool) "bad digit" true
          (Result.is_error (Recorder.hex_decode "zz")));
    test "a choice naming process 0 is an Error, not an exception" (fun () ->
        let e = execute_rank ~pattern:(Pattern.failure_free ~n) ~schedule:[] in
        let a = Replay.to_artifact ~scope:scope_json e in
        List.iter
          (fun choice ->
            let a = { a with Recorder.choices = [ choice ] } in
            Alcotest.(check bool) "both decoders refuse it" true
              (Result.is_error (Replay.schedule_of_artifact a)
              && Result.is_error (Replay.replay_entries a)))
          [ { Recorder.at = Some 0; pid = 0; recv = None };
            { at = Some 0; pid = 1;
              recv = Some { src = 0; msg = Some 0; payload = "" } } ]);
    qtest_reader "of_lines never raises on a corrupted artifact"
      ~text:(String.concat "\n" witness_lines)
      ~read:(fun text -> Recorder.of_lines (String.split_on_char '\n' text))
      ~roundtrip:(fun r -> Result.map Recorder.to_lines r = Ok witness_lines);
    test "load of a directory is an Error, not an exception" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error (Recorder.load (Filename.get_temp_dir_name ()))));
  ]

let () =
  Alcotest.run "replay"
    [
      suite "portfolio-roundtrip" portfolio_tests;
      suite "explorer-violations" violation_tests;
      suite "shrinking" shrink_tests;
      suite "run-artifacts" run_kind_tests;
      suite "recorded-fixtures" fixture_tests;
      suite "codec" codec_tests;
    ]

(* EXP-1: Lemma 4.1 - every consensus algorithm using a realistic failure
   detector (in the unbounded-failure environment) is total, and the paper's
   R1/R2/R3 adversarial construction. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Helpers

let n = 5

let run ?(scheduler = `Fair) detector pattern =
  run_consensus ~scheduler ~detector ~pattern (Ct_strong.automaton ~proposals)

let realistic_detectors =
  [ ("P", Perfect.canonical);
    ("P-delayed", Perfect.delayed ~lag:4);
    ("P-staggered", Perfect.staggered ~seed:12 ~max_lag:5);
    ("S-realistic", Strong.realistic);
    ("Scribe", Scribe.as_suspicions) ]

let totality_tests =
  List.map
    (fun (name, detector) ->
      test (name ^ " makes ct-strong total") (fun () ->
          let patterns =
            [ Pattern.failure_free ~n;
              pattern ~n [ (1, 0) ];
              pattern ~n [ (2, 10); (4, 30) ];
              pattern ~n [ (1, 5); (2, 10); (3, 15); (4, 20) ] ]
          in
          List.iter
            (fun p ->
              let r = run detector p in
              let violations = Totality.check r in
              Alcotest.(check int)
                (Format.asprintf "violations on %a" Pattern.pp p)
                0 (List.length violations))
            patterns))
    realistic_detectors
  @ [
      qtest ~count:40 "total over the sampled environment"
        (arb_pattern ~n ~horizon:150)
        (fun p -> Totality.is_total (run Perfect.canonical p));
      qtest ~count:25 "total under random schedules"
        QCheck.(pair (arb_pattern ~n ~horizon:150) small_int)
        (fun (p, seed) -> Totality.is_total (run ~scheduler:(`Random seed) Perfect.canonical p));
    ]

let non_realistic_tests =
  [
    test "clairvoyant S escapes totality" (fun () ->
        let p = pattern ~n [ (2, 10); (4, 30) ] in
        let r = run Strong.clairvoyant p in
        Alcotest.(check bool) "consensus still correct" true
          (Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
          |> List.for_all (fun (_, res) -> Classes.holds res));
        Alcotest.(check bool) "violations found" true (Totality.check r <> []));
    test "violation pinpoints the unconsulted processes" (fun () ->
        let p = Pattern.failure_free ~n in
        let r = run Strong.clairvoyant p in
        match Totality.check r with
        | [] -> Alcotest.fail "expected violations"
        | v :: _ ->
          (* the clairvoyant member trusts p1 in a failure-free pattern, so
             deciders consulted only p1 (and themselves): others missing *)
          Alcotest.(check bool) "missing non-empty" false
            (Pid.Set.is_empty v.Totality.missing);
          Alcotest.(check bool) "trusted p1 not missing" false
            (Pid.Set.mem (pid 1) v.Totality.missing));
    test "Marabout consensus is not total" (fun () ->
        let p = pattern ~n [ (1, 3); (2, 6); (3, 9); (4, 12) ] in
        let r =
          run_consensus ~detector:Marabout.canonical ~pattern:p
            (Marabout_consensus.automaton ~proposals)
        in
        Alcotest.(check bool) "not total" false (Totality.is_total r));
    test "violations pretty-print" (fun () ->
        let p = Pattern.failure_free ~n in
        let r = run Strong.clairvoyant p in
        match Totality.check r with
        | v :: _ ->
          let s = Format.asprintf "%a" Totality.pp_violation v in
          Alcotest.(check bool) "mentions decision" true
            (contains_substring ~needle:"decision" s)
        | [] -> Alcotest.fail "expected violations");
  ]

(* [Totality.check] as a filter over every event of the run: the reference
   its scan of the output steps must match, violation for violation. *)
let check_reference (r : _ Runner.result) =
  Runner.events r
  |> List.filter_map (fun (e : _ Runner.event) ->
         if e.Runner.outputs = [] then None
         else
           let alive = Pattern.alive_at r.Runner.pattern e.Runner.time in
           let missing = Pid.Set.diff alive e.Runner.heard_from in
           if Pid.Set.is_empty missing then None
           else Some { Totality.time = e.Runner.time; pid = e.Runner.pid; missing })

let oracle_tests =
  [
    test "check agrees with a filter over every event" (fun () ->
        let detectors =
          [ Perfect.canonical; Strong.realistic; Strong.clairvoyant ]
        in
        let violating = ref 0 and total = ref 0 in
        for seed = 0 to 47 do
          let family = List.nth Pattern.Family.all (seed mod 8) in
          let pattern =
            Pattern.Family.generate family ~n ~horizon:(time 150)
              (Rng.derive ~seed ~salts:[ 0x707 ])
          in
          let detector = List.nth detectors (seed mod 3) in
          let scheduler = if seed mod 2 = 0 then `Fair else `Random seed in
          let r = run ~scheduler detector pattern in
          let vs = Totality.check r in
          if vs = [] then incr total else incr violating;
          let label = Format.asprintf "seed %d, %a" seed Pattern.pp pattern in
          Alcotest.(check bool) label true (vs = check_reference r)
        done;
        Alcotest.(check bool) "some runs violate totality" true (!violating > 0);
        Alcotest.(check bool) "some runs are total" true (!total > 0));
  ]

(* The R1/R2/R3 construction from the Lemma 4.1 proof, made concrete:
   if p_j is never consulted, the adversary can crash everyone else right
   after the decision and force p_j to decide alone - possibly differently.
   We exhibit it on the Marabout algorithm (which is non-total): in R3 the
   early decider and the isolated process disagree. *)
let proof_construction_tests =
  [
    test "R3: non-total decision + isolation = disagreement" (fun () ->
        let p1 = pid 1 and p5 = pid 5 in
        (* p1 decides its own value at its first step (Marabout algorithm,
           realistic detector).  p5 is isolated until t=100.  All processes
           except p5 crash at t=50 - after p1's decision.  p5 then decides
           alone. *)
        let pattern =
          Pattern.crash_all_except (Pattern.failure_free ~n) ~keep:p5 ~at:(time 50)
        in
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.isolate p5 ~until:(time 100) ]
        in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler
            ~horizon:(time 4000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Marabout_consensus.automaton ~proposals)
        in
        (* p1 decided 1001 before crashing; p5, consulted by nobody, decides
           its own 1005: the agreement of the lemma's contradiction. *)
        let decided p =
          Option.map snd (Runner.first_output r p)
        in
        Alcotest.(check (option int)) "p1 decided own" (Some 1001) (decided p1);
        Alcotest.(check (option int)) "p5 decided own" (Some 1005) (decided p5);
        check_violated "uniform agreement broken"
          (Properties.uniform_agreement ~equal:Int.equal r));
    test "the same adversary cannot break the total algorithm" (fun () ->
        let p5 = pid 5 in
        let pattern =
          Pattern.crash_all_except (Pattern.failure_free ~n) ~keep:p5 ~at:(time 50)
        in
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.isolate p5 ~until:(time 100) ]
        in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler
            ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_strong.automaton ~proposals)
        in
        (* ct-strong is total: p1..p4 cannot decide without consulting the
           isolated p5, so they crash undecided; only p5 decides, and
           agreement holds trivially but correctly. *)
        check_holds "uniform agreement" (Properties.uniform_agreement ~equal:Int.equal r);
        check_holds "termination" (Properties.termination r);
        check_holds "totality" (if Totality.is_total r then Classes.Holds else Classes.Violated "not total");
        List.iter
          (fun (t, p, _) ->
            Alcotest.(check bool) "only p5 decides" true (Pid.equal p p5);
            Alcotest.(check bool) "no decision before the crashes" true
              Time.(t >= time 50))
          r.Runner.outputs);
  ]

let () =
  Alcotest.run "totality"
    [
      suite "realistic-is-total" totality_tests;
      suite "non-realistic-escapes" non_realistic_tests;
      suite "oracle" oracle_tests;
      suite "lemma-4.1-construction" proof_construction_tests;
    ]

(* EXP-3 / EXP-7 / EXP-9: the consensus algorithm portfolio. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Helpers

let n = 5

let check_spec ?(uniform = true) what r =
  check_all_hold what
    (Properties.check_consensus ~uniform ~proposals ~equal:Int.equal r)

(* ---------- ct_strong with Perfect detectors ---------- *)

let ct_strong_tests =
  [
    test "failure-free run decides p1's value" (fun () ->
        let pattern = Pattern.failure_free ~n in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "failure-free" r;
        List.iter (fun v -> Alcotest.(check int) "p1's proposal" 1001 v)
          (decision_values r));
    test "initial crash of p1 decides someone else's value" (fun () ->
        let pattern = pattern ~n [ (1, 0) ] in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "p1 crashed at 0" r;
        List.iter
          (fun v -> Alcotest.(check bool) "not p1's value" true (v <> 1001))
          (decision_values r));
    test "tolerates n-1 crashes" (fun () ->
        let pattern = pattern ~n [ (1, 5); (2, 12); (3, 19); (4, 26) ] in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "all but p5 crash" r;
        Alcotest.(check bool) "p5 decided" true
          (Runner.first_output r (pid 5) <> None));
    test "simultaneous crash of a majority" (fun () ->
        let pattern = pattern ~n [ (1, 10); (2, 10); (3, 10) ] in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "3 crash at t=10" r);
    test "works with delayed P (slow information)" (fun () ->
        let pattern = pattern ~n [ (2, 8) ] in
        let r =
          run_consensus ~detector:(Perfect.delayed ~lag:20) ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "delayed P" r);
    test "works with the Scribe" (fun () ->
        let pattern = pattern ~n [ (4, 15) ] in
        let r =
          run_consensus ~detector:Scribe.as_suspicions ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "scribe" r);
    test "works under the random scheduler" (fun () ->
        let pattern = pattern ~n [ (3, 9) ] in
        let r =
          run_consensus ~scheduler:(`Random 31) ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        check_spec "random schedule" r);
    test "adversarial delays do not break safety or liveness" (fun () ->
        let pattern = pattern ~n [ (2, 6) ] in
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.delay_from (pid 1) ~until:(time 150);
              Scheduler.delay_to (pid 4) ~until:(time 120) ]
        in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler
            ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_strong.automaton ~proposals)
        in
        check_spec "delayed links" r);
    qtest ~count:40 "spec holds over the pattern space"
      (arb_pattern ~n ~horizon:150)
      (fun pattern ->
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res));
    qtest ~count:25 "spec holds under random schedules"
      QCheck.(pair (arb_pattern ~n ~horizon:150) small_int)
      (fun (pattern, seed) ->
        let r =
          run_consensus ~scheduler:(`Random seed) ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res));
    test "decision state is queryable" (fun () ->
        let pattern = Pattern.failure_free ~n in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        Pid.Map.iter
          (fun p st ->
            Alcotest.(check (option int))
              (Format.asprintf "%a decided" Pid.pp p)
              (Some 1001) (Ct_strong.decision st))
          r.Runner.final_states);
  ]

(* ---------- ct_ev_strong (rotating coordinator) ---------- *)

let ev_strong_detector = Ev_strong.canonical ~seed:6 ~noise:0.15

let ct_ev_strong_tests =
  [
    test "failure-free majority run decides" (fun () ->
        let pattern = Pattern.failure_free ~n in
        let r =
          run_consensus ~detector:ev_strong_detector ~pattern
            (Ct_ev_strong.automaton ~proposals)
        in
        check_spec "failure-free" r);
    test "minority crash still decides" (fun () ->
        let pattern = pattern ~n [ (1, 10); (4, 25) ] in
        let r =
          run_consensus ~detector:ev_strong_detector ~pattern
            (Ct_ev_strong.automaton ~proposals)
        in
        check_spec "2 of 5 crash" r);
    test "majority crash blocks but stays safe (EXP-9)" (fun () ->
        let pattern = pattern ~n [ (1, 10); (2, 15); (3, 20) ] in
        let r =
          run_consensus ~horizon:2500 ~detector:ev_strong_detector ~pattern
            (Ct_ev_strong.automaton ~proposals)
        in
        check_violated "termination must fail" (Properties.termination r);
        check_holds "agreement intact"
          (Properties.uniform_agreement ~equal:Int.equal r);
        check_holds "validity intact" (Properties.validity ~proposals ~equal:Int.equal r));
    test "works with a Perfect detector too" (fun () ->
        let pattern = pattern ~n [ (2, 12) ] in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_ev_strong.automaton ~proposals)
        in
        check_spec "P driving <>S algorithm" r);
    test "majority helper" (fun () ->
        Alcotest.(check int) "n=5" 3 (Ct_ev_strong.majority ~n:5);
        Alcotest.(check int) "n=4" 3 (Ct_ev_strong.majority ~n:4));
    test "a step whose view suspects all n processes returns after n nacks"
      (fun () ->
        List.iter
          (fun n ->
            let algo = Ct_ev_strong.automaton ~proposals in
            let self = Pid.of_int n in
            let everyone = Pid.Set.of_list (Pid.all ~n) in
            let step st = algo.Model.step ~n ~self st None everyone in
            (* no proposal has arrived, so each round sends an estimate
               and nacks its suspected coordinator *)
            let first = step (algo.Model.initial ~n self) in
            Alcotest.(check int)
              (Printf.sprintf "n=%d: rounds 1..n nacked" n)
              (n + 1)
              (Ct_ev_strong.round_of first.Model.state);
            Alcotest.(check int) "an estimate and a nack per round" (2 * n)
              (List.length first.Model.sends);
            let second = step first.Model.state in
            Alcotest.(check int) "the next step nacks the next n rounds"
              ((2 * n) + 1)
              (Ct_ev_strong.round_of second.Model.state))
          [ 1; 3; 5 ]);
    test "ev-P noise that suspects everyone still lets the run decide"
      (fun () ->
        (* at this seed p2's view is {p1, p2, p3} at t = 2 and 3 *)
        let pattern = pattern ~n:3 [ (1, 2) ] in
        let r =
          run_consensus
            ~detector:(Ev_perfect.canonical ~stabilization:(time 200) ~seed:2002)
            ~pattern (Ct_ev_strong.automaton ~proposals)
        in
        check_spec "p1 crashes at 2" r);
    qtest ~count:25 "safe and live with minority crashes" QCheck.small_int (fun seed ->
        let rng = Rng.derive ~seed ~salts:[ 0xE5 ] in
        let pattern =
          Pattern.Family.generate Pattern.Family.minority_crashes ~n
            ~horizon:(time 100) rng
        in
        let r =
          run_consensus ~scheduler:(`Random seed) ~detector:ev_strong_detector ~pattern
            (Ct_ev_strong.automaton ~proposals)
        in
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res));
    qtest ~count:25 "never unsafe even with majority crashes" QCheck.small_int
      (fun seed ->
        let rng = Rng.derive ~seed ~salts:[ 0xE6 ] in
        let pattern =
          Pattern.Family.generate Pattern.Family.majority_crashes ~n
            ~horizon:(time 100) rng
        in
        let r =
          run_consensus ~horizon:1500 ~detector:ev_strong_detector ~pattern
            (Ct_ev_strong.automaton ~proposals)
        in
        Classes.holds (Properties.uniform_agreement ~equal:Int.equal r)
        && Classes.holds (Properties.validity ~proposals ~equal:Int.equal r));
  ]

(* ---------- Marabout consensus (Section 6.1) ---------- *)

let marabout_tests =
  [
    test "decides with unbounded crashes under M" (fun () ->
        let pattern = pattern ~n [ (1, 3); (2, 6); (3, 9); (4, 12) ] in
        let r =
          run_consensus ~detector:Marabout.canonical ~pattern
            (Marabout_consensus.automaton ~proposals)
        in
        check_spec "all but p5 crash" r;
        (* the leader is the smallest correct process: p5 *)
        List.iter (fun v -> Alcotest.(check int) "p5's value" 1005 v) (decision_values r));
    test "failure-free: p1 leads" (fun () ->
        let pattern = Pattern.failure_free ~n in
        let r =
          run_consensus ~detector:Marabout.canonical ~pattern
            (Marabout_consensus.automaton ~proposals)
        in
        check_spec "failure-free" r;
        List.iter (fun v -> Alcotest.(check int) "p1's value" 1001 v) (decision_values r));
    qtest ~count:30 "spec holds across the pattern space with M"
      (arb_pattern ~n ~horizon:100)
      (fun pattern ->
        let r =
          run_consensus ~detector:Marabout.canonical ~pattern
            (Marabout_consensus.automaton ~proposals)
        in
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res));
    test "unsound with a realistic detector (EXP-7b)" (fun () ->
        let p1 = pid 1 in
        let pattern = pattern ~n [ (1, 1) ] in
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.delay_from p1 ~until:(time 2000) ]
        in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler
            ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Marabout_consensus.automaton ~proposals)
        in
        check_violated "uniform agreement must break"
          (Properties.uniform_agreement ~equal:Int.equal r));
  ]

(* ---------- rank consensus is exercised in test_uniformity.ml ---------- *)

let () =
  Alcotest.run "consensus"
    [
      suite "ct-strong" ct_strong_tests;
      suite "ct-rotating-coordinator" ct_ev_strong_tests;
      suite "marabout" marabout_tests;
    ]

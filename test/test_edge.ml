(* Edge cases and defensive behaviour across the stack. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Helpers

let n = 4

(* ---------- runner guards ---------- *)

let null_automaton : (unit, int, Detector.suspicions, int) Model.t =
  Model.make ~name:"null"
    ~initial:(fun ~n:_ _ -> ())
    ~step:(fun ~n:_ ~self:_ () _ _ -> Model.no_effects ())

(* a scheduler that only ever lets one chosen process step *)
let evil_scheduler pid_to_step =
  Scheduler.constrained ~base:(Scheduler.fair ())
    [ { Scheduler.blocks_step = (fun _ q -> not (Pid.equal q pid_to_step));
        blocks_delivery = (fun _ _ -> false) } ]

(* The step's guards, reached directly: the built-in schedulers only
   choose alive processes and pending messages, so they never trip them.
   The scope has one message to p2, already delivered, and one to p3 in
   flight; [step] takes a step in it at t=5. *)
let guard_scope crashes =
  let pattern = pattern ~n crashes in
  let c = Runner.initial ~n null_automaton in
  let send dst =
    Buffer.add c.Runner.buffer
      { Model.src = pid 1; dst = pid dst;
        payload = { Runner.payload = 0; hf = Pid.Set.empty } }
  in
  let consumed = send 2 in
  let to_p3 = send 3 in
  let step p receive () =
    ignore
      (Runner.step ~pattern ~detector:Perfect.canonical null_automaton c
         ~time:(time 5) ~pid:(pid p) ~receive)
  in
  step 2 (Some consumed) ();
  (consumed, to_p3, step)

let runner_guard_tests =
  [
    test "a scheduler cannot step a crashed process" (fun () ->
        (* freeze everyone but p1; crash p1 at t=0: every tick is Idle and
           the run just burns to the horizon with zero steps *)
        let pattern = pattern ~n [ (1, 0) ] in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical
            ~scheduler:(evil_scheduler (pid 1))
            ~horizon:(time 50) null_automaton
        in
        Alcotest.(check int) "no steps" 0 r.Runner.steps;
        Alcotest.(check int) "all idle" 50 r.Runner.idle_ticks);
    test "horizon zero runs nothing" (fun () ->
        let r =
          Runner.run ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~scheduler:(Scheduler.fair ()) ~horizon:Time.zero null_automaton
        in
        Alcotest.(check int) "no steps" 0 r.Runner.steps);
    test "n=1 consensus decides immediately" (fun () ->
        let pattern = Pattern.failure_free ~n:1 in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
            ~horizon:(time 50)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check int) "one decision" 1 (List.length r.Runner.outputs);
        check_all_hold "solo consensus"
          (Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r));
    test "n=2 consensus with one crash" (fun () ->
        let pattern = pattern ~n:2 [ (1, 0) ] in
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
            ~horizon:(time 500)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_strong.automaton ~proposals)
        in
        check_all_hold "duo"
          (Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r));
    test "the step refuses a consumed message" (fun () ->
        let consumed, _, step = guard_scope [] in
        Alcotest.check_raises "consumed"
          (Invalid_argument "Runner.step: a consumed message was delivered")
          (step 2 (Some consumed)));
    test "the step refuses a message for another process" (fun () ->
        let _, to_p3, step = guard_scope [] in
        Alcotest.check_raises "misdelivered"
          (Invalid_argument "Runner.step: a message was misdelivered")
          (step 4 (Some to_p3)));
    test "the step refuses a crashed process" (fun () ->
        let _, _, step = guard_scope [ (3, 5) ] in
        Alcotest.check_raises "crashed"
          (Invalid_argument "Runner.step: a crashed process stepped") (step 3 None));
    test "a send to a crashed process gets an id and is not buffered" (fun () ->
        (* p1 sends to everyone else at t=5: p3 crashed at 5, p4 crashes
           later, at 9, so only p3's message is dead. *)
        let shout : (unit, int, Detector.suspicions, int) Model.t =
          Model.make ~name:"shout"
            ~initial:(fun ~n:_ _ -> ())
            ~step:(fun ~n ~self () _ _ ->
              { (Model.no_effects ()) with Model.sends = Model.send_all ~n ~but:self 0 })
        in
        let pattern = pattern ~n [ (3, 5); (4, 9) ] in
        let c = Runner.initial ~n shout in
        let step () =
          (Runner.step ~pattern ~detector:Perfect.canonical shout c ~time:(time 5)
             ~pid:(pid 1) ~receive:None)
            .Runner.sent_ids
        in
        Alcotest.(check (list int)) "consecutive ids" [ 0; 1; 2 ] (step ());
        Alcotest.(check (list int)) "ids continue" [ 3; 4; 5 ] (step ());
        let pending p = List.map fst (Buffer.pending c.Runner.buffer (pid p)) in
        Alcotest.(check (list int)) "nothing for the crashed p3" [] (pending 3);
        Alcotest.(check (list int)) "p2's messages" [ 0; 3 ] (pending 2);
        Alcotest.(check (list int)) "p4's messages" [ 2; 5 ] (pending 4));
  ]

(* ---------- rotating coordinator details ---------- *)

let coordinator_tests =
  [
    test "coordinator rotation wraps around" (fun () ->
        (* coordinator of round r is ((r-1) mod n)+1; reaching round n+1
           re-elects p1.  Crash p1 and p2 momentarily... simpler: crash p1;
           round 1's coordinator is dead, rounds advance, and the decision
           eventually lands via a later coordinator. *)
        let pattern = pattern ~n [ (1, 0) ] in
        let detector = Ev_strong.canonical ~seed:5 ~noise:0.0 in
        let r =
          Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
            ~horizon:(time 4000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Ct_ev_strong.automaton ~proposals)
        in
        check_all_hold "dead first coordinator"
          (Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r));
    test "timestamp locking prevents regressions across rounds" (fun () ->
        (* under a random schedule with a noisy detector, rounds interleave;
           agreement must survive many seeds *)
        List.iter
          (fun seed ->
            let pattern = pattern ~n [ (2, 15) ] in
            let detector = Ev_strong.canonical ~seed ~noise:0.25 in
            let r =
              Runner.run ~pattern ~detector
                ~scheduler:(Scheduler.random ~seed ~lambda_bias:0.3)
                ~horizon:(time 4000)
                ~until:(Runner.stop_when_all_correct_output pattern)
                (Ct_ev_strong.automaton ~proposals)
            in
            check_holds
              (Format.asprintf "agreement seed %d" seed)
              (Properties.uniform_agreement ~equal:Int.equal r);
            check_holds
              (Format.asprintf "validity seed %d" seed)
              (Properties.validity ~proposals ~equal:Int.equal r))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    test "round counter grows in blocked runs" (fun () ->
        let pattern = pattern ~n [ (1, 5); (2, 5); (3, 5) ] in
        let detector = Ev_strong.canonical ~seed:5 ~noise:0.0 in
        let r =
          Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
            ~horizon:(time 1000) (Ct_ev_strong.automaton ~proposals)
        in
        Pid.Map.iter
          (fun p st ->
            if Pattern.is_alive pattern p (time 100000) then
              Alcotest.(check bool)
                (Format.asprintf "%a cycling" Pid.pp p)
                true
                (Ct_ev_strong.round_of st > 3))
          r.Runner.final_states);
  ]

(* ---------- detector odds and ends ---------- *)

let detector_tests =
  [
    test "Detector.map preserves the realism claim" (fun () ->
        let d = Detector.map ~name:"mapped" (fun s -> Pid.Set.cardinal s) Perfect.canonical in
        Alcotest.(check bool) "claim" true (Detector.claims_realistic d);
        Alcotest.(check int) "maps output" 1
          (Detector.query d (pattern ~n [ (1, 0) ]) (pid 2) (time 5)));
    test "suspects helper" (fun () ->
        let f = pattern ~n [ (3, 7) ] in
        Alcotest.(check bool) "after" true
          (Detector.suspects Perfect.canonical f (pid 1) (time 7) (pid 3));
        Alcotest.(check bool) "before" false
          (Detector.suspects Perfect.canonical f (pid 1) (time 6) (pid 3)));
    test "classify on the empty-suspicion detector in a failure-free world" (fun () ->
        let silent = Detector.make ~name:"silent" ~claims_realistic:true (fun _ _ _ -> Pid.Set.empty) in
        let f = Pattern.failure_free ~n in
        let horizon = time 50 in
        let classes =
          Classes.classify f ~horizon ~window:(Classes.default_window ~horizon)
            (Detector.history silent f)
        in
        (* with nobody crashing, completeness is vacuous: silent is in all *)
        Alcotest.(check int) "all classes" (List.length Classes.all_classes)
          (List.length classes));
    test "all_hold reports the first violation" (fun () ->
        let v = Classes.Violated "boom" in
        Alcotest.(check bool) "violated" false
          (Classes.holds (Classes.all_hold [ Classes.Holds; v; Classes.Holds ])));
  ]

(* ---------- broadcast odds and ends ---------- *)

let broadcast_edge_tests =
  [
    test "urbcast works with a delayed Perfect detector" (fun () ->
        let to_broadcast p = [ Pid.to_int p ] in
        let pattern = pattern ~n [ (1, 8) ] in
        let r =
          Runner.run ~pattern ~detector:(Perfect.delayed ~lag:25)
            ~scheduler:(Scheduler.fair ()) ~horizon:(time 6000)
            (Urbcast.automaton ~to_broadcast)
        in
        check_holds "agreement" (Properties.broadcast_agreement r);
        check_holds "no-dup" (Properties.broadcast_no_duplication r));
    test "abcast with empty workload stays silent" (fun () ->
        let r =
          Runner.run ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~scheduler:(Scheduler.fair ()) ~horizon:(time 400)
            (Abcast.automaton ~to_broadcast:(fun _ -> []))
        in
        Alcotest.(check int) "no deliveries" 0 (List.length r.Runner.outputs);
        Alcotest.(check int) "no messages" 0 r.Runner.sent);
    test "trb value can be delivered even when the sender crashed" (fun () ->
        (* sender crashes after its broadcast step: the value is in flight
           and consensus may legitimately deliver it despite suspicion *)
        let sender = pid 1 in
        let pattern = pattern ~n [ (1, 1) ] in
        let r =
          Runner.run ~pattern ~detector:(Perfect.delayed ~lag:50)
            ~scheduler:(Scheduler.fair ()) ~horizon:(time 6000)
            ~until:(Runner.stop_when_all_correct_output pattern)
            (Trb.automaton ~sender ~value:99)
        in
        check_all_hold "late suspicion"
          (Properties.trb_check ~sender ~value:99 ~equal:Int.equal r);
        (* with suspicion delayed past the value's arrival, the value wins *)
        List.iter
          (fun (_, _, d) -> Alcotest.(check (option int)) "value" (Some 99) d)
          r.Runner.outputs);
  ]

let () =
  Alcotest.run "edge"
    [
      suite "runner-guards" runner_guard_tests;
      suite "rotating-coordinator" coordinator_tests;
      suite "detector-odds" detector_tests;
      suite "broadcast-odds" broadcast_edge_tests;
    ]

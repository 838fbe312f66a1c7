(* The FLP-model executor: buffer, schedulers, runner validity, causal
   tracking, determinism. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Helpers

let n = 4

(* A trivial gossip automaton: p1 broadcasts "hello" once; everyone relays
   the first copy they receive and outputs the hop count. *)
type gossip_state = { sent : bool; relayed : bool }

let gossip =
  Model.make ~name:"gossip"
    ~initial:(fun ~n:_ _ -> { sent = false; relayed = false })
    ~step:(fun ~n ~self st envelope _fd ->
      match envelope with
      | Some { Model.payload = hops; _ } ->
        if st.relayed then Model.no_effects st
        else
          {
            Model.state = { st with relayed = true };
            sends = Model.send_all ~n ~but:self (hops + 1);
            outputs = [ hops ];
          }
      | None ->
        if Pid.equal self (pid 1) && not st.sent then
          {
            Model.state = { st with sent = true };
            sends = Model.send_all ~n ~but:self 1;
            outputs = [];
          }
        else Model.no_effects st)

let run_gossip ?(pattern = Pattern.failure_free ~n) ?(scheduler = Scheduler.fair ())
    ?(horizon = 500) () =
  Runner.run ~pattern ~detector:Perfect.canonical ~scheduler ~horizon:(time horizon)
    gossip

(* ---------- buffer ---------- *)

(* The buffer against a list model: a removal returns a message exactly
   once, [pending] lists a destination's messages oldest first and [iter]
   walks every message in id order, which is the order of [add].  A [skip]
   draws the next id and stores nothing, so ids count adds and skips
   together.  The order is part of the results: [Scheduler.random] picks
   by position in [pending] and [fair] takes its head.  Each case sends
   to one to three pids drawn from 1..8, in any order, and checks
   [pending] for all eight: destinations first addressed out of order,
   and pids never addressed. *)
let buffer_model_test =
  qtest ~count:300 "add/remove/pending/iter agree with a list model"
    QCheck.(
      pair
        (pair (int_bound 7) (list_of_size Gen.(0 -- 2) (int_bound 7)))
        (small_list (triple (int_bound 2) (int_bound 31) small_nat)))
    (fun ((first, others), ops) ->
      let dsts = first :: others in
      let b = Buffer.create ~dst:fst in
      let model = ref [] (* (id, (dst, k)), oldest first *) in
      let next = ref 0 in
      let fresh id =
        incr next;
        id = !next - 1
      in
      List.for_all
        (fun (op, k, d) ->
          let op_ok =
            match op with
            | 0 ->
              let m = (pid (List.nth dsts (d mod List.length dsts) + 1), k) in
              let id = Buffer.add b m in
              model := !model @ [ (id, m) ];
              fresh id
            | 1 -> fresh (Buffer.skip b)
            | _ ->
              let expected = List.assoc_opt k !model in
              model := List.remove_assoc k !model;
              Buffer.remove b k = expected
          in
          let visited = ref [] in
          Buffer.iter b (fun id m -> visited := (id, m) :: !visited);
          op_ok
          && List.rev !visited = !model
          && List.for_all
               (fun p ->
                 Buffer.pending b p
                 = List.filter (fun (_, (dst, _)) -> Pid.equal dst p) !model)
               (Pid.all ~n:8))
        ops)

let buffer_tests =
  [
    test "add/remove roundtrip" (fun () ->
        let b = Buffer.create ~dst:(fun _ -> pid 1) in
        let id = Buffer.add b "x" in
        Alcotest.(check (option string)) "found" (Some "x") (Buffer.remove b id);
        Alcotest.(check (option string)) "gone" None (Buffer.remove b id));
    test "pending_for filters by destination, oldest first" (fun () ->
        let b = Buffer.create ~dst:(fun e -> e.Model.dst) in
        let env dst payload = { Model.src = pid 1; dst = pid dst; payload } in
        ignore (Buffer.add b (env 2 "a"));
        ignore (Buffer.add b (env 3 "b"));
        ignore (Buffer.add b (env 2 "c"));
        let pending = Buffer.pending b (pid 2) in
        Alcotest.(check (list string)) "ordered" [ "a"; "c" ]
          (List.map (fun (_, e) -> e.Model.payload) pending));
    test "iter in id order" (fun () ->
        let b = Buffer.create ~dst:(fun _ -> pid 1) in
        ignore (Buffer.add b "first");
        ignore (Buffer.add b "second");
        let acc = ref [] in
        Buffer.iter b (fun _ v -> acc := v :: !acc);
        Alcotest.(check (list string)) "order" [ "second"; "first" ] !acc);
    buffer_model_test;
  ]

(* ---------- schedulers ---------- *)

let scheduler_tests =
  [
    test "fair scheduler steps every correct process" (fun () ->
        let r = run_gossip () in
        List.iter
          (fun p ->
            let steps =
              List.length
                (List.filter (fun e -> Pid.equal e.Runner.pid p) (Runner.events r))
            in
            Alcotest.(check bool)
              (Format.asprintf "%a stepped" Pid.pp p)
              true (steps > 10))
          (Pid.all ~n));
    test "fair scheduler delivers everything" (fun () ->
        let r = run_gossip () in
        Alcotest.(check int) "all delivered" r.Runner.sent r.Runner.delivered);
    test "gossip reaches everyone" (fun () ->
        let r = run_gossip () in
        (* everyone, p1 included, outputs on its first receipt (p1 hears the
           relays of its own broadcast) *)
        Alcotest.(check int) "four outputs" 4 (List.length r.Runner.outputs));
    test "random scheduler also completes the gossip" (fun () ->
        let r = run_gossip ~scheduler:(Scheduler.random ~seed:77 ~lambda_bias:0.2) () in
        Alcotest.(check int) "four outputs" 4 (List.length r.Runner.outputs));
    test "random scheduler rejects silly bias" (fun () ->
        Alcotest.check_raises "bias"
          (Invalid_argument "Scheduler.random: lambda_bias out of [0,1)") (fun () ->
            ignore (Scheduler.random ~seed:1 ~lambda_bias:1.0)));
    test "crashed processes never step" (fun () ->
        let pattern = pattern ~n [ (2, 30) ] in
        let r = run_gossip ~pattern () in
        List.iter
          (fun e ->
            if Pid.equal e.Runner.pid (pid 2) then
              Alcotest.(check bool) "before crash" true Time.(e.Runner.time < time 30))
          (Runner.events r));
  ]

let constraint_tests =
  [
    test "delay_from holds messages back" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.delay_from (pid 1) ~until:(time 100) ]
        in
        let r = run_gossip ~scheduler () in
        (* nobody can receive p1's broadcast before t=100 *)
        List.iter
          (fun e ->
            if e.Runner.received = Some (pid 1) then
              Alcotest.(check bool) "after 100" true Time.(e.Runner.time >= time 100))
          (Runner.events r);
        Alcotest.(check int) "still completes" 4 (List.length r.Runner.outputs));
    test "delay_to isolates a receiver" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.delay_to (pid 3) ~until:(time 200) ]
        in
        let r = run_gossip ~scheduler () in
        let p3_first_recv =
          List.find_opt (fun e -> Pid.equal e.Runner.pid (pid 3) && e.Runner.received <> None)
            (Runner.events r)
        in
        match p3_first_recv with
        | Some e -> Alcotest.(check bool) "after 200" true Time.(e.Runner.time >= time 200)
        | None -> Alcotest.fail "p3 never received");
    test "freeze stops a process from stepping" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.freeze (pid 2) ~until:(time 50) ]
        in
        let r = run_gossip ~scheduler () in
        List.iter
          (fun e ->
            if Pid.equal e.Runner.pid (pid 2) then
              Alcotest.(check bool) "after 50" true Time.(e.Runner.time >= time 50))
          (Runner.events r));
    test "freeze_all_except produces idle ticks when needed" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.freeze_all_except [] ~until:(time 20) ]
        in
        let r = run_gossip ~scheduler ~horizon:60 () in
        Alcotest.(check bool) "idle ticks happened" true (r.Runner.idle_ticks >= 20));
    test "isolate cuts both directions" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.isolate (pid 4) ~until:(time 150) ]
        in
        let r = run_gossip ~scheduler () in
        List.iter
          (fun e ->
            if
              Time.(e.Runner.time < time 150)
              && (Pid.equal e.Runner.pid (pid 4) || List.mem (pid 4) e.Runner.sent_to)
            then
              Alcotest.(check bool) "no deliveries involving p4 early" true
                (e.Runner.received = None || not (Pid.equal e.Runner.pid (pid 4))))
          (Runner.events r));
  ]

(* ---------- runner semantics ---------- *)

(* The Runner keeps its alive list from one crash time to the next.  A
   constraint that blocks nothing records the view of every tick on which
   someone is alive and checks its list against the pattern, under [fair]
   and [random].  The ticks it never sees must be exactly those on which
   everyone has crashed, which the Runner counts as idle. *)
let alive_view_test =
  test "the scheduler sees the pattern's alive list at every tick" (fun () ->
      let horizon = 60 in
      let ticks = List.init horizon Fun.id in
      let alive_at f t = List.filter (fun p -> Pattern.is_alive f p t) (Pid.all ~n) in
      List.iter
        (fun f ->
          List.iter
            (fun base ->
              let seen = Hashtbl.create 64 in
              let record =
                {
                  Scheduler.blocks_step =
                    (fun view _ ->
                      let t = view.Scheduler.time in
                      if view.Scheduler.alive <> alive_at f t then
                        Alcotest.failf "%a, t=%d: alive list differs" Pattern.pp f
                          (Time.to_int t);
                      Hashtbl.replace seen (Time.to_int t) ();
                      false);
                  blocks_delivery = (fun _ _ -> false);
                }
              in
              let scheduler = Scheduler.constrained ~base:(base ()) [ record ] in
              let r = run_gossip ~pattern:f ~scheduler ~horizon () in
              let empty = List.filter (fun t -> alive_at f (time t) = []) ticks in
              Alcotest.(check (list int))
                (Format.asprintf "%a: unseen ticks" Pattern.pp f)
                empty
                (List.filter (fun t -> not (Hashtbl.mem seen t)) ticks);
              Alcotest.(check int) "idle ticks" (List.length empty) r.Runner.idle_ticks)
            [ (fun () -> Scheduler.fair ());
              (fun () -> Scheduler.random ~seed:3 ~lambda_bias:0.3) ])
        [ pattern ~n [ (2, 0) ];
          pattern ~n [ (1, 0); (3, 0) ];
          pattern ~n [ (1, 10); (3, 10); (4, 25) ];
          pattern ~n [ (4, horizon - 1) ];
          pattern ~n [ (1, 0); (2, 12); (3, 12); (4, 30) ] ])

let runner_tests =
  [
    test "runs are deterministic" (fun () ->
        let a = run_gossip ~scheduler:(Scheduler.random ~seed:5 ~lambda_bias:0.3) () in
        let b = run_gossip ~scheduler:(Scheduler.random ~seed:5 ~lambda_bias:0.3) () in
        Alcotest.(check int) "same steps" a.Runner.steps b.Runner.steps;
        Alcotest.(check int) "same outputs" (List.length a.Runner.outputs)
          (List.length b.Runner.outputs));
    test "until stops the run early" (fun () ->
        let r =
          Runner.run ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~scheduler:(Scheduler.fair ()) ~horizon:(time 500)
            ~until:(fun outputs -> List.length outputs >= 1)
            gossip
        in
        Alcotest.(check bool) "stopped early" true r.Runner.stopped_early;
        Alcotest.(check bool) "before horizon" true Time.(r.Runner.end_time < time 500));
    test "outputs_of and first_output" (fun () ->
        let r = run_gossip () in
        match Runner.first_output r (pid 2) with
        | Some (_, hops) -> Alcotest.(check int) "direct hop" 1 hops
        | None -> Alcotest.fail "p2 should have output");
    test "final states cover all processes" (fun () ->
        let r = run_gossip ~pattern:(pattern ~n [ (3, 10) ]) () in
        Alcotest.(check int) "n states" n (Pid.Map.cardinal r.Runner.final_states));
    alive_view_test;
  ]

(* ---------- causal tracking ---------- *)

(* Whether every event's heard-from set is its own pid plus the pid of
   every step that happened before it.  Those steps are found from
   scratch, by walking back over the run's events: from a step to its
   process's previous step, and to the step whose [sent_ids] hold the id
   it received. *)
let heard_from_is_causal_past (events : _ Runner.event list) =
  let ev = Array.of_list events in
  let sender = Hashtbl.create 256 and last = Hashtbl.create 8 in
  let edges =
    Array.mapi
      (fun k (e : _ Runner.event) ->
        let earlier = Option.to_list (Hashtbl.find_opt last e.Runner.pid) in
        Hashtbl.replace last e.Runner.pid k;
        List.iter (fun id -> Hashtbl.replace sender id k) e.Runner.sent_ids;
        match e.Runner.received_id with
        | None -> earlier
        | Some id -> Hashtbl.find sender id :: earlier)
      ev
  in
  let past k =
    let seen = Array.make (Array.length ev) false in
    let rec walk acc j =
      if seen.(j) then acc
      else begin
        seen.(j) <- true;
        List.fold_left walk (Pid.Set.add ev.(j).Runner.pid acc) edges.(j)
      end
    in
    walk Pid.Set.empty k
  in
  Seq.for_all
    (fun (k, e) -> Pid.Set.equal (past k) e.Runner.heard_from)
    (Array.to_seqi ev)

(* Random patterns of up to five processes, each crashing before t = 60
   or never, under [fair] or [random] ([None] or a seed): ct-strong,
   stopped once every correct process decides, or T(D->P) over it for
   300 ticks, with P or the realistic S. *)
let heard_from_oracle_test =
  qtest ~count:80 "heard_from is the pids of every step that happened before"
    QCheck.(
      quad (int_range 1 5)
        (list_of_size (Gen.return 5) (option (int_bound 59)))
        (pair bool bool) (option small_nat))
    (fun (n, crash_times, (tdp, strong), seed) ->
      let pattern =
        pattern ~n
          (List.filteri (fun i _ -> i < n) crash_times
          |> List.mapi (fun i t -> Option.map (fun t -> (i + 1, t)) t)
          |> List.filter_map Fun.id)
      in
      let detector = if strong then Strong.realistic else Perfect.canonical in
      let scheduler () =
        match seed with
        | None -> Scheduler.fair ()
        | Some seed -> Scheduler.random ~seed ~lambda_bias:0.3
      in
      if tdp then
        heard_from_is_causal_past
          (Runner.events
             (Runner.run ~pattern ~detector ~scheduler:(scheduler ())
                ~horizon:(time 300)
                Rlfd_reduction.Consensus_to_p.(automaton ~impl:ct_strong_impl)))
      else
        heard_from_is_causal_past
          (Runner.events
             (Runner.run ~pattern ~detector ~scheduler:(scheduler ())
                ~horizon:(time 1000)
                ~until:(Runner.stop_when_all_correct_output pattern)
                (Rlfd_algo.Ct_strong.automaton ~proposals))))

let causal_tests =
  [
    test "heard_from starts as self" (fun () ->
        let r = run_gossip () in
        let first = List.hd (Runner.events r) in
        Alcotest.(check bool) "self in hf" true
          (Pid.Set.mem first.Runner.pid first.Runner.heard_from));
    test "receivers absorb the sender's causal past" (fun () ->
        let r = run_gossip () in
        List.iter
          (fun e ->
            match e.Runner.received with
            | Some src ->
              Alcotest.(check bool)
                (Format.asprintf "%a heard from %a" Pid.pp e.Runner.pid Pid.pp src)
                true
                (Pid.Set.mem src e.Runner.heard_from)
            | None -> ())
          (Runner.events r));
    test "gossip outputs causally include p1" (fun () ->
        let r = run_gossip () in
        List.iter
          (fun (e : _ Runner.event) ->
            if e.Runner.outputs <> [] then
              Alcotest.(check bool) "p1 in causal chain" true
                (Pid.Set.mem (pid 1) e.Runner.heard_from))
          (Runner.events r));
    heard_from_oracle_test;
  ]

let () =
  Alcotest.run "sim"
    [
      suite "buffer" buffer_tests;
      suite "schedulers" scheduler_tests;
      suite "constraints" constraint_tests;
      suite "runner" runner_tests;
      suite "causal-tracking" causal_tests;
    ]

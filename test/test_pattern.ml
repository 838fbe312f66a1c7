open Rlfd_kernel
open Rlfd_fd
open Helpers

let n = 5

(* [crashed_by] as a fold over [Pid.all]: the reference its loop over the
   crash array must match, as a set under [=] and in its [Marshal] bytes
   (the tree of a set depends on the order of its insertions). *)
let crashed_by_reference f t =
  List.fold_left
    (fun acc p -> if Pattern.is_crashed f p t then Pid.Set.add p acc else acc)
    Pid.Set.empty (Pattern.processes f)

let arb_small_pattern =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      list_repeat n (opt (int_bound 20)) >|= fun times ->
      Pattern.make ~n
        (List.concat
           (List.mapi
              (fun i -> function None -> [] | Some t -> [ (pid (i + 1), time t) ])
              times)))
  in
  QCheck.make ~print:(Format.asprintf "%a" Pattern.pp) gen

let crashed_by_oracle =
  qtest ~count:300 "crashed_by agrees with the fold over Pid.all, bytes included"
    arb_small_pattern (fun f ->
      let ticks =
        0 :: 100
        :: List.concat_map
             (fun p ->
               match Pattern.crash_time f p with
               | None -> []
               | Some ct ->
                 let ct = Time.to_int ct in
                 List.filter (fun t -> t >= 0) [ ct - 1; ct; ct + 1 ])
             (Pattern.processes f)
      in
      List.for_all
        (fun t ->
          let fast = Pattern.crashed_by f (time t)
          and slow = crashed_by_reference f (time t) in
          fast = slow && Marshal.to_string fast [] = Marshal.to_string slow [])
        ticks)

let basic_tests =
  [
    test "failure-free has everyone correct" (fun () ->
        let f = Pattern.failure_free ~n in
        Alcotest.(check int) "correct" n (Pid.Set.cardinal (Pattern.correct f));
        Alcotest.(check int) "faulty" 0 (Pattern.num_faulty f));
    test "make rejects duplicates" (fun () ->
        Alcotest.check_raises "dup" (Invalid_argument "Pattern.make: duplicate process")
          (fun () -> ignore (pattern ~n [ (1, 3); (1, 5) ])));
    test "make rejects out-of-range pid" (fun () ->
        Alcotest.check_raises "oob"
          (Invalid_argument "Pattern.make: process index exceeds n") (fun () ->
            ignore (pattern ~n [ (6, 3) ])));
    test "crashed_by is monotone cumulative" (fun () ->
        let f = pattern ~n [ (1, 3); (2, 7) ] in
        Alcotest.(check int) "t=2" 0 (Pid.Set.cardinal (Pattern.crashed_by f (time 2)));
        Alcotest.(check int) "t=3" 1 (Pid.Set.cardinal (Pattern.crashed_by f (time 3)));
        Alcotest.(check int) "t=100" 2 (Pid.Set.cardinal (Pattern.crashed_by f (time 100))));
    test "is_crashed at exact crash time" (fun () ->
        let f = pattern ~n [ (4, 10) ] in
        Alcotest.(check bool) "t=9 alive" true (Pattern.is_alive f (pid 4) (time 9));
        Alcotest.(check bool) "t=10 crashed" true (Pattern.is_crashed f (pid 4) (time 10)));
    test "alive_at complements crashed_by" (fun () ->
        let f = pattern ~n [ (1, 0); (5, 2) ] in
        let t = time 2 in
        let union = Pid.Set.union (Pattern.alive_at f t) (Pattern.crashed_by f t) in
        Alcotest.(check int) "partition" n (Pid.Set.cardinal union));
    test "correct/faulty partition" (fun () ->
        let f = pattern ~n [ (2, 5); (3, 9) ] in
        Alcotest.(check string) "faulty" "{p2,p3}"
          (Format.asprintf "%a" Pid.Set.pp (Pattern.faulty f));
        Alcotest.(check string) "correct" "{p1,p4,p5}"
          (Format.asprintf "%a" Pid.Set.pp (Pattern.correct f)));
    test "equal/compare" (fun () ->
        let a = pattern ~n [ (1, 2) ] and b = pattern ~n [ (1, 2) ] in
        Alcotest.(check bool) "equal" true (Pattern.equal a b);
        let c = pattern ~n [ (1, 3) ] in
        Alcotest.(check bool) "not equal" false (Pattern.equal a c));
    crashed_by_oracle;
  ]

let prefix_tests =
  [
    test "prefix keeps only events <= t" (fun () ->
        let f = pattern ~n [ (1, 3); (2, 8) ] in
        let p = Pattern.prefix f (time 5) in
        Alcotest.(check int) "one event" 1 (List.length (Pattern.prefix_events p));
        Alcotest.(check string) "crashed" "{p1}"
          (Format.asprintf "%a" Pid.Set.pp (Pattern.prefix_crashed p)));
    test "prefix_equal distinguishes upto" (fun () ->
        let f = pattern ~n [ (1, 3) ] in
        Alcotest.(check bool) "different upto" false
          (Pattern.prefix_equal (Pattern.prefix f (time 4)) (Pattern.prefix f (time 5)));
        Alcotest.(check bool) "same" true
          (Pattern.prefix_equal (Pattern.prefix f (time 4)) (Pattern.prefix f (time 4))));
    test "prefix events are sorted by time" (fun () ->
        let f = pattern ~n [ (3, 9); (1, 2); (2, 5) ] in
        let events = Pattern.prefix_events (Pattern.prefix f (time 100)) in
        let times = List.map (fun (_, t) -> Time.to_int t) events in
        Alcotest.(check (list int)) "sorted" [ 2; 5; 9 ] times);
  ]

let divergence_tests =
  [
    test "identical patterns never diverge" (fun () ->
        let f = pattern ~n [ (1, 3) ] in
        Alcotest.(check bool) "none" true (Pattern.divergence_time f f = None));
    test "divergence at the differing crash" (fun () ->
        let a = pattern ~n [ (1, 3) ] and b = pattern ~n [ (1, 7) ] in
        Alcotest.(check (option int)) "t=3" (Some 3)
          (Option.map Time.to_int (Pattern.divergence_time a b)));
    test "extra crash diverges at its time" (fun () ->
        let a = pattern ~n [ (1, 3) ] and b = pattern ~n [ (1, 3); (2, 6) ] in
        Alcotest.(check (option int)) "t=6" (Some 6)
          (Option.map Time.to_int (Pattern.divergence_time a b)));
    test "agree_through strictly before divergence" (fun () ->
        let a = pattern ~n [ (1, 3) ] and b = pattern ~n [] in
        Alcotest.(check bool) "agree at 2" true (Pattern.agree_through a b (time 2));
        Alcotest.(check bool) "disagree at 3" false (Pattern.agree_through a b (time 3)));
    test "the paper's F1/F2 agree through 9" (fun () ->
        let f1, f2, witness = Marabout.paper_example ~n in
        Alcotest.(check bool) "agree through 9" true (Pattern.agree_through f1 f2 witness);
        Alcotest.(check (option int)) "diverge at 10" (Some 10)
          (Option.map Time.to_int (Pattern.divergence_time f1 f2)));
    qtest "divergence is symmetric"
      QCheck.(pair (arb_pattern ~n ~horizon:50) (arb_pattern ~n ~horizon:50))
      (fun (a, b) -> Pattern.divergence_time a b = Pattern.divergence_time b a);
    qtest "truncate_after t agrees with original through t"
      QCheck.(pair (arb_pattern ~n ~horizon:50) (int_range 0 60))
      (fun (f, t) -> Pattern.agree_through f (Pattern.truncate_after f (time t)) (time t));
  ]

let surgery_tests =
  [
    test "crash adds a crash" (fun () ->
        let f = Pattern.crash (Pattern.failure_free ~n) (pid 2) (time 4) in
        Alcotest.(check (option int)) "time" (Some 4)
          (Option.map Time.to_int (Pattern.crash_time f (pid 2))));
    test "crash_all_except spares the keeper" (fun () ->
        let f = pattern ~n [ (1, 2) ] in
        let g = Pattern.crash_all_except f ~keep:(pid 3) ~at:(time 10) in
        Alcotest.(check string) "only p3 correct" "{p3}"
          (Format.asprintf "%a" Pid.Set.pp (Pattern.correct g));
        Alcotest.(check (option int)) "p1 keeps early crash" (Some 2)
          (Option.map Time.to_int (Pattern.crash_time g (pid 1)));
        Alcotest.(check (option int)) "p2 crashes at 10" (Some 10)
          (Option.map Time.to_int (Pattern.crash_time g (pid 2))));
    test "crash_all_except revives the keeper" (fun () ->
        let f = pattern ~n [ (3, 2) ] in
        let g = Pattern.crash_all_except f ~keep:(pid 3) ~at:(time 10) in
        Alcotest.(check bool) "p3 correct" true (Pid.Set.mem (pid 3) (Pattern.correct g)));
    test "truncate_after drops late crashes only" (fun () ->
        let f = pattern ~n [ (1, 3); (2, 30) ] in
        let g = Pattern.truncate_after f (time 10) in
        Alcotest.(check bool) "p1 still crashes" true (Pid.Set.mem (pid 1) (Pattern.faulty g));
        Alcotest.(check bool) "p2 saved" true (Pid.Set.mem (pid 2) (Pattern.correct g)));
  ]

let family_tests =
  let rng seed = Rng.derive ~seed ~salts:[ 0xFA ] in
  let horizon = time 80 in
  [
    test "failure_free family" (fun () ->
        let f = Pattern.Family.(generate failure_free) ~n ~horizon (rng 1) in
        Alcotest.(check int) "0 faulty" 0 (Pattern.num_faulty f));
    test "single_crash family" (fun () ->
        let f = Pattern.Family.(generate single_crash) ~n ~horizon (rng 2) in
        Alcotest.(check int) "1 faulty" 1 (Pattern.num_faulty f));
    qtest "minority family keeps a correct majority" QCheck.small_int (fun seed ->
        let f = Pattern.Family.(generate minority_crashes) ~n ~horizon (rng seed) in
        Pattern.num_faulty f < (n + 1) / 2);
    qtest "majority family crashes at least half" QCheck.small_int (fun seed ->
        let f = Pattern.Family.(generate majority_crashes) ~n ~horizon (rng seed) in
        Pattern.num_faulty f >= n / 2);
    qtest "all_but_one leaves exactly one correct" QCheck.small_int (fun seed ->
        let f = Pattern.Family.(generate all_but_one) ~n ~horizon (rng seed) in
        Pid.Set.cardinal (Pattern.correct f) = 1);
    qtest "simultaneous crashes share one instant" QCheck.small_int (fun seed ->
        let f = Pattern.Family.(generate simultaneous) ~n ~horizon (rng seed) in
        let times =
          Pid.Set.elements (Pattern.faulty f)
          |> List.filter_map (fun p -> Pattern.crash_time f p)
        in
        match times with [] -> false | t :: ts -> List.for_all (Time.equal t) ts);
    qtest "every family keeps at least one correct process" QCheck.small_int (fun seed ->
        List.for_all
          (fun family ->
            let f = Pattern.Family.generate family ~n ~horizon (rng seed) in
            Pid.Set.cardinal (Pattern.correct f) >= 1)
          Pattern.Family.all);
    (* through the record field, which callers may apply directly; short
       horizons give cascade fewer ticks than crashes *)
    qtest ~count:300
      "every family at n = 1..6 keeps a correct process and crashes by the horizon"
      QCheck.(
        triple (int_range 1 6) small_int
          (make ~print:string_of_int
             Gen.(oneof [ int_range 0 8; int_range 9 1000 ])))
      (fun (n, seed, h) ->
        let horizon = time h in
        List.for_all
          (fun family ->
            let f = family.Pattern.Family.generate ~n ~horizon (rng seed) in
            Pid.Set.cardinal (Pattern.correct f) >= 1
            && Pid.Set.for_all
                 (fun p ->
                   match Pattern.crash_time f p with
                   | None -> true
                   | Some t -> Time.(t <= horizon))
                 (Pattern.faulty f))
          Pattern.Family.all);
    qtest "crash times respect the horizon" QCheck.small_int (fun seed ->
        List.for_all
          (fun family ->
            let f = Pattern.Family.generate family ~n ~horizon (rng seed) in
            Pid.Set.for_all
              (fun p ->
                match Pattern.crash_time f p with
                | None -> true
                | Some t -> Time.(t <= horizon))
              (Pattern.faulty f))
          Pattern.Family.all);
  ]

let () =
  Alcotest.run "pattern"
    [
      suite "basics" basic_tests;
      suite "prefixes" prefix_tests;
      suite "divergence" divergence_tests;
      suite "surgery" surgery_tests;
      suite "families" family_tests;
    ]

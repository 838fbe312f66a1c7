(* Tooling: space-time rendering and the experiment grid API. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Rlfd_core
open Helpers

let n = 4

let spacetime_tests =
  [
    test "renders header, crashes and outputs" (fun () ->
        let pattern = pattern ~n [ (2, 10) ] in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        let s = Spacetime.render r in
        Alcotest.(check bool) "has p1 column" true (contains_substring ~needle:"p1" s);
        Alcotest.(check bool) "shows a crash" true (contains_substring ~needle:"X" s);
        Alcotest.(check bool) "shows an output" true (contains_substring ~needle:"*" s);
        Alcotest.(check bool) "has legend" true (contains_substring ~needle:"legend" s));
    test "elides long runs" (fun () ->
        let pattern = Pattern.failure_free ~n in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        let s = Spacetime.render ~max_rows:5 r in
        Alcotest.(check bool) "elision marker" true
          (contains_substring ~needle:"more steps elided" s));
    test "pp_output annotates rows" (fun () ->
        let pattern = Pattern.failure_free ~n in
        let r =
          run_consensus ~detector:Perfect.canonical ~pattern
            (Ct_strong.automaton ~proposals)
        in
        let s =
          Spacetime.render ~max_rows:500 ~pp_output:string_of_int r
        in
        Alcotest.(check bool) "decision value shown" true
          (contains_substring ~needle:"1001" s));
  ]

let judge r = Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r

let grid_tests =
  [
    test "P passes the grid everywhere" (fun () ->
        let cells =
          Grid.run ~n ~seeds:[ 1; 2; 3; 4 ]
            ~detectors:[ ("P", Perfect.canonical) ]
            ~environments:[ Environment.unbounded; Environment.majority_correct ]
            ~judge
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check int) "two cells" 2 (List.length cells);
        List.iter
          (fun c ->
            Alcotest.(check (float 1e-9))
              (Format.asprintf "%a" Grid.pp_cell c)
              1.0 (Grid.pass_rate c))
          cells);
    test "the paranoid <>S fails somewhere in the unbounded grid" (fun () ->
        let cells =
          Grid.run ~n ~seeds:(List.init 8 Fun.id)
            ~detectors:[ ("<>S-paranoid", Ev_strong.paranoid ~stabilization:(time 400)) ]
            ~environments:[ Environment.unbounded ]
            ~judge
            (Ct_strong.automaton ~proposals)
        in
        match cells with
        | [ c ] ->
          Alcotest.(check bool)
            (Format.asprintf "%a" Grid.pp_cell c)
            true
            (c.Grid.passes < c.Grid.runs && c.Grid.first_failure <> None)
        | _ -> Alcotest.fail "one cell expected");
    test "to_table renders" (fun () ->
        let cells =
          Grid.run ~n ~seeds:[ 1; 2 ]
            ~detectors:[ ("P", Perfect.canonical) ]
            ~environments:[ Environment.failure_free ]
            ~judge
            (Ct_strong.automaton ~proposals)
        in
        let s = Format.asprintf "%a" Table.pp (Grid.to_table ~title:"grid" cells) in
        Alcotest.(check bool) "has rate" true (contains_substring ~needle:"2/2" s));
    test "grid cells are deterministic" (fun () ->
        let once () =
          Grid.run ~n ~seeds:[ 1; 2; 3 ]
            ~detectors:[ ("P", Perfect.canonical) ]
            ~environments:[ Environment.unbounded ]
            ~judge
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "same" true (once () = once ()));
  ]

(* explorer witness -> Replay.execute -> the same decisions and violation *)
let replay_tests =
  [
    test "an explorer witness replays into the same outputs and violation" (fun () ->
        let proposals p = 10 + Pid.to_int p in
        let pattern = pattern ~n:3 [ (1, 1) ] in
        let check = Explore.agreement_check ~equal:Int.equal in
        let report =
          Explore.run ~max_steps:10 ~max_nodes:400_000 ~pattern
            ~detector:Partial_perfect.canonical ~check
            (Rank_consensus.automaton ~proposals)
        in
        match report.Explore.violations with
        | [] -> Alcotest.fail "expected a witness"
        | v :: _ ->
          let e =
            Replay.execute ~pp_output:string_of_int ~pattern
              ~detector:Partial_perfect.canonical ~check ~schedule:v.Explore.schedule
              (Rank_consensus.automaton ~proposals)
          in
          (* the replay reproduces the witness's decisions *)
          let replayed = List.map (fun (_, p, o) -> (p, o)) e.Replay.outputs in
          Alcotest.(check int) "same number of decisions"
            (List.length v.Explore.outputs) (List.length replayed);
          List.iter2
            (fun (p, o) (p', o') ->
              Alcotest.(check bool) "same decider" true (Pid.equal p p');
              Alcotest.(check int) "same value" o o')
            v.Explore.outputs replayed;
          (* and it violates agreement at the same step, reproducibly *)
          Alcotest.(check (option (pair int string))) "replayed violation"
            (Some (v.Explore.at_step, v.Explore.reason)) e.Replay.violation;
          Alcotest.(check int) "nothing dropped" 0 e.Replay.dropped;
          (* the space-time diagram of the witness renders *)
          let s =
            Spacetime.Timeline.(render_ascii ~pattern (of_execution e))
          in
          Alcotest.(check bool) "renders" true (contains_substring ~needle:"legend" s));
  ]

let () =
  Alcotest.run "tools"
    [ suite "spacetime" spacetime_tests; suite "grid" grid_tests;
      suite "witness-replay" replay_tests ]

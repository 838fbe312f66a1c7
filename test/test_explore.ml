(* Bounded-exhaustive schedule exploration: small-scope model checking of
   the safety clauses. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Helpers

let n = 3

let agreement = Explore.agreement_check ~equal:Int.equal

let validity = Explore.validity_check ~n ~proposals ~equal:Int.equal

let safety = Explore.both agreement validity

let explorer_tests =
  [
    test "a correct algorithm survives the whole tree (ct-strong, no crash)" (fun () ->
        let report =
          Explore.run ~max_steps:9 ~max_nodes:400_000
            ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~check:safety (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check int)
          (Format.asprintf "%a" Explore.pp_report report)
          0
          (List.length report.Explore.violations);
        Alcotest.(check bool) "explored a lot" true (report.Explore.nodes_explored > 10_000));
    test "ct-strong with P survives crashes exhaustively" (fun () ->
        let report =
          Explore.run ~max_steps:9 ~max_nodes:400_000
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check int) "no violations" 0 (List.length report.Explore.violations));
    test "rank consensus with P< survives exhaustively (correct-restricted)" (fun () ->
        (* correct-restricted agreement: filter decisions of the faulty p1 *)
        let faulty = pid 1 in
        let check outputs =
          agreement (List.filter (fun (p, _) -> not (Pid.equal p faulty)) outputs)
        in
        let report =
          Explore.run ~max_steps:10 ~max_nodes:400_000
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Partial_perfect.canonical ~check
            (Rank_consensus.automaton ~proposals)
        in
        Alcotest.(check int) "no violations" 0 (List.length report.Explore.violations));
    test "rank consensus is NOT uniformly safe: the explorer finds the witness" (fun () ->
        let report =
          Explore.run ~max_steps:10 ~max_nodes:400_000
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement
            (Rank_consensus.automaton ~proposals)
        in
        match report.Explore.violations with
        | [] -> Alcotest.fail "expected a uniform-agreement violation"
        | v :: _ ->
          Alcotest.(check bool) "witness has a schedule" true (v.Explore.trail <> []);
          Alcotest.(check bool) "two different decisions" true
            (List.length v.Explore.outputs >= 2));
    test "the Marabout algorithm with P is unsafe: witness found" (fun () ->
        let report =
          Explore.run ~max_steps:8 ~max_nodes:400_000
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Perfect.canonical ~check:agreement
            (Marabout_consensus.automaton ~proposals)
        in
        Alcotest.(check bool) "violations found" true (report.Explore.violations <> []));
    test "the same algorithm with Marabout itself is exhaustively safe" (fun () ->
        let report =
          Explore.run ~max_steps:8 ~max_nodes:400_000
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Marabout.canonical ~check:safety
            (Marabout_consensus.automaton ~proposals)
        in
        Alcotest.(check int) "no violations" 0 (List.length report.Explore.violations));
    test "budget boundary: a tree of exactly max_nodes nodes is complete" (fun () ->
        (* Measure the exact tree size with a generous budget, then re-run
           with the budget at, one above, and one below that size. *)
        let explore ~max_nodes =
          Explore.run ~max_steps:4 ~max_nodes
            ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~check:safety (Ct_strong.automaton ~proposals)
        in
        let total = (explore ~max_nodes:400_000).Explore.nodes_explored in
        Alcotest.(check bool) "reference run is complete" true
          (explore ~max_nodes:400_000).Explore.complete;
        let exact = explore ~max_nodes:total in
        Alcotest.(check int) "exact budget explores everything" total
          exact.Explore.nodes_explored;
        Alcotest.(check bool) "exact budget is complete" true exact.Explore.complete;
        let above = explore ~max_nodes:(total + 1) in
        Alcotest.(check bool) "budget + 1 is complete" true above.Explore.complete;
        let below = explore ~max_nodes:(total - 1) in
        Alcotest.(check bool) "budget - 1 truncates" false below.Explore.complete;
        Alcotest.(check int) "budget - 1 explores max_nodes nodes" (total - 1)
          below.Explore.nodes_explored);
    test "node budget truncates honestly" (fun () ->
        let report =
          Explore.run ~max_steps:12 ~max_nodes:500
            ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~check:safety (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "not complete" false report.Explore.complete);
    test "depth bound is respected" (fun () ->
        let report =
          Explore.run ~max_steps:4 ~max_nodes:400_000
            ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~check:safety (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "deepest <= 4" true (report.Explore.deepest <= 4);
        Alcotest.(check bool) "complete" true report.Explore.complete);
    test "a negative depth bound is rejected before exploring" (fun () ->
        Alcotest.check_raises "max_steps = -1"
          (Invalid_argument "Explore.run: max_steps < 0") (fun () ->
            ignore
              (Explore.run ~max_steps:(-1) ~pattern:(Pattern.failure_free ~n)
                 ~detector:Perfect.canonical ~check:safety
                 (Ct_strong.automaton ~proposals))));
  ]

(* ---------- reductions: canon dedup + sleep-set POR ---------- *)

let d_equal = Pid.Set.equal

let reduction_tests =
  [
    test "cross-check: ct-strong+P reaches identical decision states reduced" (fun () ->
        let c =
          Explore.cross_check ~max_steps:9 ~max_nodes:2_000_000 ~d_equal
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "identical decision sets" true c.Explore.identical;
        Alcotest.(check bool) "at least 5x fewer nodes" true
          (c.Explore.node_factor >= 5.));
    test "cross-check: rank+P< (correct-restricted) identical decision states" (fun () ->
        let faulty = pid 1 in
        let check outputs =
          agreement (List.filter (fun (p, _) -> not (Pid.equal p faulty)) outputs)
        in
        let c =
          Explore.cross_check ~max_steps:10 ~max_nodes:2_000_000 ~d_equal
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Partial_perfect.canonical ~check
            (Rank_consensus.automaton ~proposals)
        in
        Alcotest.(check bool) "identical decision sets" true c.Explore.identical;
        Alcotest.(check bool) "at least 5x fewer nodes" true
          (c.Explore.node_factor >= 5.));
    test "cross-check: marabout algorithm with its own detector identical" (fun () ->
        let c =
          Explore.cross_check ~max_steps:8 ~max_nodes:2_000_000 ~d_equal
            ~pattern:(Pattern.failure_free ~n) ~detector:Marabout.canonical
            ~check:safety
            (Marabout_consensus.automaton ~proposals)
        in
        Alcotest.(check bool) "identical decision sets" true c.Explore.identical);
    test "cross-check preserves the uniformity witnesses of rank+P<" (fun () ->
        let c =
          Explore.cross_check ~max_steps:10 ~max_nodes:2_000_000 ~d_equal
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement
            (Rank_consensus.automaton ~proposals)
        in
        Alcotest.(check bool) "reduced run still finds witnesses" true
          (c.Explore.reduced.Explore.violations <> []);
        Alcotest.(check bool) "identical" true c.Explore.identical);
    test "canon alone changes no verdict and no decision set" (fun () ->
        let explore ~canon =
          Explore.run ~max_steps:8 ~max_nodes:2_000_000 ~canon
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        let naive = explore ~canon:false and dedup = explore ~canon:true in
        Alcotest.(check (list string)) "same decision states"
          naive.Explore.decision_states dedup.Explore.decision_states;
        Alcotest.(check bool) "both complete" true
          (naive.Explore.complete && dedup.Explore.complete);
        Alcotest.(check bool) "dedup did something" true
          (dedup.Explore.deduped > 0);
        Alcotest.(check bool) "fewer nodes expanded" true
          (dedup.Explore.nodes_explored < naive.Explore.nodes_explored));
    test "the visited set never prunes states whose encodings differ" (fun () ->
        (* Distinct per-process states, message multisets, output multisets
           and step counts must all produce distinct canonical encodings —
           equal encodings are the only thing the explorer ever prunes on. *)
        let enc = Canon.encode_value in
        let base =
          Canon.assemble ~step_no:3 ~states:[ enc 1; enc 2 ]
            ~messages:[ enc "m1" ] ~outputs:[ enc 10 ]
        in
        let variants =
          [ Canon.assemble ~step_no:4 ~states:[ enc 1; enc 2 ]
              ~messages:[ enc "m1" ] ~outputs:[ enc 10 ];
            Canon.assemble ~step_no:3 ~states:[ enc 1; enc 3 ]
              ~messages:[ enc "m1" ] ~outputs:[ enc 10 ];
            Canon.assemble ~step_no:3 ~states:[ enc 1; enc 2 ]
              ~messages:[ enc "m1"; enc "m1" ] ~outputs:[ enc 10 ];
            Canon.assemble ~step_no:3 ~states:[ enc 1; enc 2 ]
              ~messages:[ enc "m2" ] ~outputs:[ enc 10 ];
            Canon.assemble ~step_no:3 ~states:[ enc 1; enc 2 ]
              ~messages:[ enc "m1" ] ~outputs:[ enc 10; enc 10 ];
            Canon.assemble ~step_no:3 ~states:[ enc 1 ] ~messages:[ enc "m1" ]
              ~outputs:[ enc 10 ] ]
        in
        List.iteri
          (fun i v ->
            Alcotest.(check bool)
              (Printf.sprintf "variant %d differs from base" i)
              false (Canon.equal base v))
          variants;
        (* and order of the multiset sections is erased: *)
        let ab =
          Canon.assemble ~step_no:3 ~states:[ enc 1; enc 2 ]
            ~messages:[ enc "a"; enc "b" ] ~outputs:[]
        in
        let ba =
          Canon.assemble ~step_no:3 ~states:[ enc 1; enc 2 ]
            ~messages:[ enc "b"; enc "a" ] ~outputs:[]
        in
        Alcotest.(check bool) "message order erased" true (Canon.equal ab ba));
    test "budget boundary still exact with canon pruning enabled" (fun () ->
        let explore ~max_nodes =
          Explore.run ~max_steps:4 ~max_nodes ~canon:true ~por:true ~d_equal
            ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~check:safety (Ct_strong.automaton ~proposals)
        in
        let total = (explore ~max_nodes:400_000).Explore.nodes_explored in
        let exact = explore ~max_nodes:total in
        Alcotest.(check int) "exact budget explores everything" total
          exact.Explore.nodes_explored;
        Alcotest.(check bool) "exact budget is complete" true exact.Explore.complete;
        Alcotest.(check bool) "budget + 1 is complete" true
          (explore ~max_nodes:(total + 1)).Explore.complete;
        let below = explore ~max_nodes:(total - 1) in
        Alcotest.(check bool) "budget - 1 truncates" false below.Explore.complete;
        Alcotest.(check int) "budget - 1 explores max_nodes nodes" (total - 1)
          below.Explore.nodes_explored);
    test "reduced exploration of an n=4 scope completes in budget" (fun () ->
        let proposals4 p = 10 + Pid.to_int p in
        let report =
          Explore.run ~max_steps:6 ~max_nodes:400_000 ~canon:true ~por:true
            ~d_equal
            ~pattern:(Pattern.make ~n:4 [ (pid 1, time 2) ])
            ~detector:Perfect.canonical
            ~check:
              (Explore.both
                 (Explore.agreement_check ~equal:Int.equal)
                 (Explore.validity_check ~n:4 ~proposals:proposals4
                    ~equal:Int.equal))
            (Ct_strong.automaton ~proposals:proposals4)
        in
        Alcotest.(check bool) "complete" true report.Explore.complete;
        Alcotest.(check int) "no violations" 0
          (List.length report.Explore.violations);
        Alcotest.(check bool) "pruning engaged" true
          (report.Explore.deduped > 0 && report.Explore.por_pruned > 0));
    test "pinned counts: the T10b layers and the n=4 full stack" (fun () ->
        (* Each scope is built exactly as bench/main.ml builds it, and the
           expected counts are those of bench/baselines/BENCH_explore.json:
           (nodes, distinct, deduped, por-pruned, lambda-pruned,
           orbit-collapsed). *)
        let proposals p = 10 + Pid.to_int p in
        let safety ~n =
          Explore.both agreement
            (Explore.validity_check ~n ~proposals ~equal:Int.equal)
        in
        let sym n =
          {
            Explore.renamer = Ct_strong.renamer;
            value_map = (fun pi -> Symmetry.value_map_of_proposals ~n ~proposals pi);
            d_rename = Symmetry.rename_set;
          }
        in
        let headline ~canon ~por ~por_lambda ~symmetry () =
          Explore.run ~max_steps:9 ~max_nodes:2_000_000 ~canon ~por ~por_lambda
            ?symmetry:(if symmetry then Some (sym 3) else None)
            ~d_equal
            ~pattern:(pattern ~n:3 [ (1, 2) ])
            ~detector:Perfect.canonical ~check:(safety ~n:3)
            (Ct_strong.automaton ~proposals)
        in
        let n4 () =
          Explore.run ~max_steps:13 ~max_nodes:4_000_000 ~canon:true ~por:true
            ~por_lambda:true ~symmetry:(sym 4) ~d_equal
            ~pattern:(Pattern.make ~n:4 [])
            ~detector:Perfect.canonical ~check:(safety ~n:4)
            (Ct_strong.automaton ~proposals)
        in
        List.iter
          (fun (label, explore, (nodes, distinct, deduped, por, lambda, orbit)) ->
            let r = explore () in
            let count what expected actual =
              Alcotest.(check int) (label ^ ": " ^ what) expected actual
            in
            count "nodes_explored" nodes r.Explore.nodes_explored;
            count "distinct_states" distinct r.Explore.distinct_states;
            count "deduped" deduped r.Explore.deduped;
            count "por_pruned" por r.Explore.por_pruned;
            count "lambda_pruned" lambda r.Explore.lambda_pruned;
            count "orbit_collapsed" orbit r.Explore.orbit_collapsed;
            Alcotest.(check bool) (label ^ ": complete") true r.Explore.complete)
          [ ( "naive",
              headline ~canon:false ~por:false ~por_lambda:false ~symmetry:false,
              (732279, 732279, 0, 0, 0, 0) );
            ( "canon",
              headline ~canon:true ~por:false ~por_lambda:false ~symmetry:false,
              (489, 350, 1377, 0, 0, 0) );
            ( "canon+por",
              headline ~canon:true ~por:true ~por_lambda:false ~symmetry:false,
              (682, 350, 1552, 159, 0, 0) );
            ( "canon+por+lambda",
              headline ~canon:true ~por:true ~por_lambda:true ~symmetry:false,
              (576, 350, 1007, 222, 290, 0) );
            ( "canon+symmetry",
              headline ~canon:true ~por:false ~por_lambda:false ~symmetry:true,
              (257, 189, 715, 0, 0, 451) );
            ( "full stack",
              headline ~canon:true ~por:true ~por_lambda:true ~symmetry:true,
              (318, 189, 612, 89, 128, 440) );
            ("full stack, n=4 failure-free, depth 13", n4,
             (4572, 1315, 25211, 4872, 4546, 28336)) ]);
  ]

(* ---------- the symmetry layer ---------- *)

let sym_spec ~n =
  {
    Explore.renamer = Ct_strong.renamer;
    value_map = (fun pi -> Symmetry.value_map_of_proposals ~n ~proposals pi);
    d_rename = Symmetry.rename_set;
  }

(* States with populated message logs, reached by actually running the
   algorithm under a seeded random scheduler — the raw material for the
   renamer properties. *)
let reached_states ~seed =
  let r =
    Runner.run
      ~pattern:(Pattern.failure_free ~n)
      ~detector:Perfect.canonical
      ~scheduler:(Scheduler.random ~seed ~lambda_bias:0.3)
      ~horizon:(time 40)
      (Ct_strong.automaton ~proposals)
  in
  r.Runner.final_states

(* The orbit representative exactly as the explorer's Reduction layer picks
   it: rename the whole state map through each group element, encode each
   process state, lay the encodings out in pid order, take the
   lexicographic minimum. *)
let orbit_rep ~group states =
  let enc_with pi =
    let pid = Symmetry.apply pi in
    let value = Symmetry.value_map_of_proposals ~n ~proposals pi in
    let renamed =
      Pid.Map.fold
        (fun p s acc ->
          Pid.Map.add (pid p)
            (Canon.encode_value
               (Ct_strong.renamer.Symmetry.rename_state ~pid ~value s))
            acc)
        states Pid.Map.empty
    in
    String.concat "\x00"
      (List.rev (Pid.Map.fold (fun _ e acc -> e :: acc) renamed []))
  in
  List.fold_left
    (fun best pi ->
      let e = enc_with pi in
      if String.compare e best < 0 then e else best)
    (enc_with (Symmetry.identity ~n))
    group

let rename_states pi states =
  let pid = Symmetry.apply pi in
  let value = Symmetry.value_map_of_proposals ~n ~proposals pi in
  Pid.Map.fold
    (fun p s acc ->
      Pid.Map.add (pid p)
        (Ct_strong.renamer.Symmetry.rename_state ~pid ~value s)
        acc)
    states Pid.Map.empty

let symmetry_tests =
  [
    qtest ~count:30 "group laws: compose, inverse, identity"
      QCheck.(pair small_int small_int)
      (fun (i, j) ->
        let group = Symmetry.crash_respecting (Pattern.failure_free ~n) in
        let g = List.nth group (i mod List.length group) in
        let h = List.nth group (j mod List.length group) in
        let id = Symmetry.identity ~n in
        Symmetry.is_identity (Symmetry.compose g (Symmetry.inverse g))
        && Symmetry.images (Symmetry.compose g id) = Symmetry.images g
        && List.for_all
             (fun p ->
               Pid.equal
                 (Symmetry.apply (Symmetry.compose g h) p)
                 (Symmetry.apply g (Symmetry.apply h p)))
             (Pid.all ~n));
    qtest ~count:25 "renamer round-trip: rename by pi then pi^-1 is identity"
      QCheck.small_int
      (fun seed ->
        let states = reached_states ~seed in
        let group = Symmetry.crash_respecting (Pattern.failure_free ~n) in
        List.for_all
          (fun pi ->
            let back = rename_states (Symmetry.inverse pi) (rename_states pi states) in
            Pid.Map.for_all
              (fun p s ->
                String.compare
                  (Canon.encode_value s)
                  (Canon.encode_value (Pid.Map.find p states))
                = 0)
              back)
          group);
    qtest ~count:25
      "orbit representative is permutation-invariant (and hence idempotent)"
      QCheck.small_int
      (fun seed ->
        let states = reached_states ~seed in
        let group = Symmetry.crash_respecting (Pattern.failure_free ~n) in
        let rep = orbit_rep ~group states in
        List.for_all
          (fun pi -> String.compare (orbit_rep ~group (rename_states pi states)) rep = 0)
          group);
    test "crash-respecting group never renames across crash patterns" (fun () ->
        (* p1 crashes at 2; p2 and p3 are correct: the only admissible
           non-identity renaming swaps p2 and p3.  In particular no group
           element maps the crashed p1 onto a correct process, so states
           that differ in which crash-time class a pid belongs to can never
           fall into one orbit. *)
        let group = Symmetry.crash_respecting (pattern ~n [ (1, 2) ]) in
        Alcotest.(check int) "order two" 2 (List.length group);
        List.iter
          (fun pi ->
            Alcotest.(check bool) "fixes the crashed process" true
              (Pid.equal (Symmetry.apply pi (pid 1)) (pid 1)))
          group;
        (* different crash times are different classes even when both crash *)
        let staggered = Symmetry.crash_respecting (pattern ~n [ (1, 2); (2, 4) ]) in
        Alcotest.(check int) "staggered crashes leave only the identity" 1
          (List.length staggered));
    test "two configs differing only by a cross-class renaming do not merge" (fun () ->
        (* Same states, but held by processes in different crash classes:
           under the crash 1@2 pattern, renaming p1<->p2 is not in the
           group, so the orbit representatives differ. *)
        let group = Symmetry.crash_respecting (pattern ~n [ (1, 2) ]) in
        let states = reached_states ~seed:7 in
        let swap12 = Symmetry.of_images [ 2; 1; 3 ] in
        let renamed = rename_states swap12 states in
        Alcotest.(check bool) "orbit reps differ" false
          (String.compare (orbit_rep ~group states) (orbit_rep ~group renamed) = 0));
    test "the equivariance filter rejects rank-breaking detectors" (fun () ->
        (* With p2 crashed the group is {id, p1<->p3}.  Under P< the swap
           breaks: p1 suspects nobody while p3 suspects p2, so renaming p1
           to p3 changes the detector's answer and only the identity
           survives.  P reports the same crashed set to everyone, so it
           keeps the whole group. *)
        let pat = pattern ~n [ (2, 2) ] in
        let full = Symmetry.crash_respecting pat in
        Alcotest.(check int) "crash group has the swap" 2 (List.length full);
        let keep det =
          List.length
            (Symmetry.filter_equivariant ~pattern:pat ~detector:det ~horizon:10
               ~d_rename:Symmetry.rename_set ~d_equal:Pid.Set.equal full)
        in
        Alcotest.(check int) "P keeps the full group" 2 (keep Perfect.canonical);
        Alcotest.(check int) "P< keeps only the identity" 1
          (keep Partial_perfect.canonical));
    test "cross-check: full stack (symmetry + lambda POR) identical" (fun () ->
        let c =
          Explore.cross_check ~max_steps:8 ~max_nodes:2_000_000 ~d_equal
            ~symmetry:(sym_spec ~n)
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "identical decision sets" true c.Explore.identical;
        Alcotest.(check bool) "orbits collapsed" true
          (c.Explore.reduced.Explore.orbit_collapsed > 0);
        Alcotest.(check bool) "lambda steps pruned" true
          (c.Explore.reduced.Explore.lambda_pruned > 0);
        Alcotest.(check bool) "at least 5x fewer nodes" true
          (c.Explore.node_factor >= 5.));
    test "cross-check: symmetry alone identical" (fun () ->
        let c =
          Explore.cross_check ~max_steps:8 ~max_nodes:2_000_000 ~d_equal
            ~por:false ~por_lambda:false ~symmetry:(sym_spec ~n)
            ~pattern:(Pattern.failure_free ~n)
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "identical decision sets" true c.Explore.identical);
  ]

(* ---------- the walk's observable surface: timeline and --explain ---------- *)

let strategy_tests =
  [
    test "timeline phase spans are one per phase on the dfs recorder" (fun () ->
        let module Timeline = Rlfd_obs.Timeline in
        let explore timeline =
          Explore.run ~max_steps:8 ~max_nodes:400_000 ~canon:true ~d_equal
            ~timeline
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        let tl = Timeline.create ~label:"align" () in
        let live = explore tl in
        let spans =
          match
            List.filter
              (fun (d : Timeline.domain_rec) -> d.dom_label = "dfs")
              (Timeline.merge tl).Timeline.a_domains
          with
          | [ d ] -> d.dom_spans
          | ds -> Alcotest.failf "expected one dfs recorder, got %d" (List.length ds)
        in
        List.iter
          (fun phase ->
            match
              List.filter (fun (s : Timeline.span_rec) -> s.sp_name = phase) spans
            with
            | [ s ] ->
              Alcotest.(check bool) (phase ^ " duration >= 0") true (s.sp_dur >= 0.)
            | l -> Alcotest.failf "expected one %s span, got %d" phase (List.length l))
          [ "expand"; "hash"; "encode"; "confirm" ];
        Alcotest.(check bool) "the timeline leaves the report unchanged" true
          (live = explore Timeline.null));
    test "describe names every active layer" (fun () ->
        let lines =
          Explore.describe ~max_steps:9 ~canon:true ~por:true ~por_lambda:true
            ~symmetry:(sym_spec ~n) ~d_equal
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ()
        in
        let mentions needle =
          List.exists
            (fun l ->
              let rec find i =
                i + String.length needle <= String.length l
                && (String.sub l i (String.length needle) = needle || find (i + 1))
              in
              find 0)
            lines
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) (needle ^ " mentioned") true (mentions needle))
          [ "canon"; "clamp"; "sleep"; "lambda"; "symmetry" ]);
  ]

(* ---------- the incremental-fingerprint kernel under paranoid audit ---------- *)

(* [~paranoid:true] recomputes every configuration's fingerprint lanes from
   scratch at every expanded edge and raises on any divergence from the
   incrementally maintained ones — the oracle for the delta-hashing
   kernel.  These scopes are small enough that the quadratic audit stays
   cheap. *)
let paranoid_tests =
  [
    test "paranoid audit passes on the headline scope, full stack" (fun () ->
        let report =
          Explore.run ~max_steps:9 ~max_nodes:400_000 ~canon:true ~por:true
            ~por_lambda:true ~symmetry:(sym_spec ~n) ~d_equal ~paranoid:true
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "complete" true report.Explore.complete;
        Alcotest.(check int) "no violations" 0
          (List.length report.Explore.violations));
    qtest ~count:8 "incremental fingerprints = from-scratch, random scopes"
      QCheck.(pair small_int small_int)
      (fun (d, ct) ->
        let max_steps = 5 + (d mod 4) in
        let crash_time = 1 + (ct mod 3) in
        let explore ~paranoid =
          Explore.run ~max_steps ~max_nodes:400_000 ~canon:true ~por:true
            ~por_lambda:true ~symmetry:(sym_spec ~n) ~d_equal ~paranoid
            ~pattern:(pattern ~n [ (1, crash_time) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        (* The audited run must not raise, and auditing must not perturb
           what is explored. *)
        let audited = explore ~paranoid:true in
        let plain = explore ~paranoid:false in
        audited.Explore.decision_states = plain.Explore.decision_states
        && audited.Explore.nodes_explored = plain.Explore.nodes_explored
        && audited.Explore.distinct_states = plain.Explore.distinct_states
        && audited.Explore.complete && plain.Explore.complete);
    qtest ~count:8 "paranoid agrees under canon alone (no symmetry, no POR)"
      QCheck.small_int
      (fun d ->
        let max_steps = 5 + (d mod 4) in
        let explore ~paranoid =
          Explore.run ~max_steps ~max_nodes:400_000 ~canon:true ~d_equal
            ~paranoid
            ~pattern:(Pattern.failure_free ~n)
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        let audited = explore ~paranoid:true in
        let plain = explore ~paranoid:false in
        audited.Explore.decision_states = plain.Explore.decision_states
        && audited.Explore.nodes_explored = plain.Explore.nodes_explored);
  ]

let () =
  Alcotest.run "explore"
    [
      suite "small-scope-model-checking" explorer_tests;
      suite "reductions" reduction_tests;
      suite "symmetry" symmetry_tests;
      suite "strategies-and-stores" strategy_tests;
      suite "paranoid-fingerprint-audit" paranoid_tests;
    ]

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
          Alcotest.(check bool) "witness has a schedule" true (v.Explore.schedule <> []);
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
    test "a violation cap below one is rejected before exploring" (fun () ->
        (* a cap of 0 would stop the walk at the root and report the scope
           complete and clean *)
        let raises what f =
          Alcotest.check_raises what
            (Invalid_argument "Explore.run: max_violations < 1") (fun () -> ignore (f ()))
        in
        let pattern = pattern ~n [ (1, 1) ] and detector = Partial_perfect.canonical in
        let algo = Rank_consensus.automaton ~proposals in
        raises "run, max_violations = 0" (fun () ->
            Explore.run ~max_violations:0 ~pattern ~detector ~check:agreement algo);
        raises "cross_check, max_violations = -1" (fun () ->
            Explore.cross_check ~max_violations:(-1) ~pattern ~detector ~check:agreement
              algo));
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
              false (String.equal base v))
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
        Alcotest.(check string) "message order erased" ab ba);
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
        (* Each scope up to n=4 is built exactly as bench/main.ml builds it,
           and the expected counts are those of
           bench/baselines/BENCH_explore.json: (nodes, distinct, deduped,
           por-pruned, lambda-pruned, orbit-collapsed).  The n=5 and n=6
           scopes (group orders 120 and 720) pin which lane becomes the
           orbit representative; their counts were recorded with the
           explorer that interned orbits by renaming each member. *)
        let proposals p = 10 + Pid.to_int p in
        let safety ~n =
          Explore.both agreement
            (Explore.validity_check ~n ~proposals ~equal:Int.equal)
        in
        let headline ~canon ~por ~por_lambda ~symmetry () =
          Explore.run ~max_steps:9 ~max_nodes:2_000_000 ~canon ~por ~por_lambda
            ?symmetry:
              (if symmetry then Some (Ct_strong.symmetry ~n:3 ~proposals) else None)
            ~d_equal
            ~pattern:(pattern ~n:3 [ (1, 2) ])
            ~detector:Perfect.canonical ~check:(safety ~n:3)
            (Ct_strong.automaton ~proposals)
        in
        let failure_free ~n ~depth () =
          Explore.run ~max_steps:depth ~max_nodes:4_000_000 ~canon:true ~por:true
            ~por_lambda:true ~symmetry:(Ct_strong.symmetry ~n ~proposals) ~d_equal
            ~pattern:(Pattern.failure_free ~n)
            ~detector:Perfect.canonical ~check:(safety ~n)
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
            ("full stack, n=4 failure-free, depth 13", failure_free ~n:4 ~depth:13,
             (4572, 1315, 25211, 4872, 4546, 28336));
            ("full stack, n=5 failure-free, depth 8", failure_free ~n:5 ~depth:8,
             (5023, 1373, 19597, 5086, 2898, 24344));
            ("full stack, n=6 failure-free, depth 5", failure_free ~n:6 ~depth:5,
             (169, 73, 600, 61, 63, 760)) ]);
  ]

(* ---------- the symmetry layer ---------- *)

let sym_spec ~n = Ct_strong.symmetry ~n ~proposals

(* The detector's views through [horizon]: [views.(t).(i)] is the output
   of p_(i+1)'s module at tick [t], the table a scope is resolved from. *)
let views_of ~pattern ~detector ~horizon =
  Array.init (horizon + 1) (fun t ->
      Array.init (Pattern.n pattern) (fun i ->
          Detector.query detector pattern (pid (i + 1)) (time t)))

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

(* A canonical orbit representative of a state map: rename it through each
   group element, encode each process state, lay the encodings out in pid
   order, take the lexicographic minimum.  It tests the renamer (renamed
   maps must land in one orbit), not the explorer, whose representative is
   the smallest-fingerprint lane. *)
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
        let group = Array.of_list (Symmetry.crash_respecting (Pattern.failure_free ~n)) in
        let i = i mod Array.length group and j = j mod Array.length group in
        let g = group.(i) and h = group.(j) in
        let id = Symmetry.identity ~n in
        Symmetry.is_identity (Symmetry.compose g (Symmetry.inverse g))
        && Symmetry.images (Symmetry.compose g id) = Symmetry.images g
        && Symmetry.images group.(Symmetry.multiplication group i j)
           = Symmetry.images (Symmetry.compose g h)
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
    test "multiplication rejects a set that is not closed" (fun () ->
        (* the 3-cycle without its square *)
        let cycle = Symmetry.of_images [ 2; 3; 1 ] in
        let table = Symmetry.multiplication [| Symmetry.identity ~n; cycle |] in
        Alcotest.(check int) "identity row" 1 (table 1 0);
        Alcotest.check_raises "cycle after cycle"
          (Invalid_argument "Symmetry.multiplication: the group is not closed")
          (fun () -> ignore (table 1 1)));
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
            (Symmetry.filter_equivariant
               ~views:(views_of ~pattern:pat ~detector:det ~horizon:10)
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

(* ---------- the resolved scope: one table of detector views ---------- *)

(* The suspicion-set detectors of the zoo, lags and stabilisation placed
   inside the scopes drawn below. *)
let zoo =
  [ ("P", Perfect.canonical);
    ("P-delayed", Perfect.delayed ~lag:3);
    ("staggered P", Perfect.staggered ~seed:3 ~max_lag:4);
    ("realistic S", Strong.realistic);
    ("clairvoyant S", Strong.clairvoyant);
    ("P<", Partial_perfect.canonical);
    ("Scribe", Scribe.as_suspicions);
    ("seeded ev-P", Ev_perfect.canonical ~stabilization:(time 5) ~seed:11);
    ("Marabout", Marabout.canonical) ]

(* References read straight off the detector, one query per use: the
   clamp tick is the first q <= horizon with aliveness and every view
   constant on [q, horizon]; the group keeps the crash-respecting
   renamings under which every query commutes with the renaming. *)
let reference_clamp ~pattern ~detector ~horizon =
  let query p t = Detector.query detector pattern p (time t) in
  let steady t =
    Pid.Set.equal
      (Pattern.alive_at pattern (time t))
      (Pattern.alive_at pattern (time (t + 1)))
    && List.for_all
         (fun p -> Pid.Set.equal (query p t) (query p (t + 1)))
         (Pattern.processes pattern)
  in
  let rec first q =
    if List.for_all steady (List.init (horizon - q) (fun k -> q + k)) then q
    else first (q + 1)
  in
  first 0

let reference_group ~pattern ~detector ~horizon =
  List.filter
    (fun pi ->
      let f = Symmetry.apply pi in
      List.for_all
        (fun t ->
          List.for_all
            (fun p ->
              Pid.Set.equal
                (Detector.query detector pattern (f p) (time t))
                (Symmetry.rename_set f (Detector.query detector pattern p (time t))))
            (Pattern.processes pattern))
        (List.init (horizon + 1) Fun.id))
    (Symmetry.crash_respecting pattern)

(* n <= 4, max_steps 0-11 (horizons 1-12), each process crashing at a
   tick in [0, max_steps + 2] or never, and a zoo index. *)
let arb_scope =
  let open QCheck in
  let gen =
    Gen.(
      int_range 2 4 >>= fun n ->
      int_range 0 11 >>= fun max_steps ->
      list_repeat n (opt ~ratio:0.5 (int_range 0 (max_steps + 2))) >>= fun cts ->
      int_bound (List.length zoo - 1) >|= fun d ->
      let crashes =
        List.filter_map Fun.id (List.mapi (fun i -> Option.map (fun t -> (i + 1, t))) cts)
      in
      (n, max_steps, crashes, d))
  in
  let print (n, max_steps, crashes, d) =
    Format.asprintf "n=%d max_steps=%d %a fd=%s" n max_steps Pattern.pp
      (pattern ~n crashes) (fst (List.nth zoo d))
  in
  make ~print gen

(* A detector that counts its queries. *)
let counting detector =
  let queries = ref 0 in
  (Detector.observed ~on_query:(fun _ _ _ _ -> incr queries) detector, queries)

let scope_tests =
  [
    test "the detector is read once per run: n * (max_steps + 2) queries" (fun () ->
        List.iter
          (fun (label, n, pat, max_steps) ->
            let expected = n * (max_steps + 2) in
            let check =
              Explore.both agreement
                (Explore.validity_check ~n ~proposals ~equal:Int.equal)
            in
            List.iter
              (fun (walk, canon, por, por_lambda, symmetry) ->
                let symmetry = if symmetry then Some (sym_spec ~n) else None in
                let detector, queries = counting Perfect.canonical in
                let (_ : int Explore.report) =
                  Explore.run ~max_steps ~max_nodes:20_000 ~canon ~por ~por_lambda
                    ?symmetry ~d_equal ~pattern:pat ~detector ~check
                    (Ct_strong.automaton ~proposals)
                in
                Alcotest.(check int) (label ^ ", " ^ walk ^ ": run") expected !queries;
                queries := 0;
                let (_ : string list) =
                  Explore.describe ~max_steps ~canon ~por ~por_lambda ?symmetry ~d_equal
                    ~pattern:pat ~detector ()
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s, %s: describe reads %d <= %d" label walk !queries
                     expected)
                  true (!queries <= expected))
              [ ("naive", false, false, false, false);
                ("canon", true, false, false, false);
                ("canon+por+lambda", true, true, true, false);
                ("full stack", true, true, true, true) ])
          [ ("n=3, crash 1@2, depth 9", 3, pattern ~n:3 [ (1, 2) ], 9);
            ("n=5 failure-free, depth 6", 5, Pattern.failure_free ~n:5, 6) ]);
    qtest ~count:200 "scope oracle: group and clamp tick against direct queries"
      arb_scope
      (fun (n, max_steps, crashes, d) ->
        let pat = pattern ~n crashes and detector = snd (List.nth zoo d) in
        let horizon = max_steps + 1 in
        let group =
          Symmetry.filter_equivariant
            ~views:(views_of ~pattern:pat ~detector ~horizon)
            ~d_rename:Symmetry.rename_set ~d_equal (Symmetry.crash_respecting pat)
        in
        let reference = reference_group ~pattern:pat ~detector ~horizon in
        let lines =
          Explore.describe ~max_steps ~canon:true ~symmetry:(sym_spec ~n) ~d_equal
            ~pattern:pat ~detector ()
        in
        let says needle = List.exists (contains_substring ~needle) lines in
        List.map Symmetry.images group = List.map Symmetry.images reference
        && says
             (Printf.sprintf "clock clamp at t=%d"
                (reference_clamp ~pattern:pat ~detector ~horizon))
        && says (Printf.sprintf "group order %d after" (List.length reference)));
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
    test "describe without canon quotients only the decision sets" (fun () ->
        (* Without canon no state orbit is merged, so the symmetry line
           must not claim orbit representatives. *)
        let symmetry_line ~canon =
          Explore.describe ~max_steps:7 ~canon ~symmetry:(sym_spec ~n) ~d_equal
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ()
          |> List.find (contains_substring ~needle:"reduction: symmetry")
        in
        Alcotest.(check string) "canon off"
          "reduction: symmetry (group order 2 after crash-pattern and detector \
           equivariance; without canon only the decision sets are quotiented)"
          (symmetry_line ~canon:false);
        Alcotest.(check string) "canon on"
          "reduction: symmetry (group order 2 after crash-pattern and detector \
           equivariance; orbit representative = min fingerprint lane; orbits \
           hashconsed whole, one renaming per group element)"
          (symmetry_line ~canon:true));
  ]

(* ---------- the explorer's step against the Runner's ---------- *)

(* Every walk takes its steps through the memo keyed by (state, received
   message, process x view).  A check that rejects every non-empty output
   list turns each output-emitting step into a witness (the check is
   prefix-closed, order-insensitive and renaming-insensitive, as [canon]
   and symmetry require); each witness's schedule must then replay
   through [Runner.step] ([Replay.execute]) with nothing dropped, exactly
   [at_step] steps, and the same outputs in the same order. *)
let replays_witnesses ~canon ~max_steps ~pattern ~detector algo =
  let check outputs = if outputs = [] then None else Some "an output" in
  let r =
    Explore.run ~max_steps ~max_nodes:20_000 ~max_violations:20 ~canon ~por:canon
      ~d_equal ~capture:true ~pattern ~detector ~check algo
  in
  List.for_all
    (fun (v : int Explore.violation) ->
      let e = Replay.execute ~pattern ~detector ~check ~schedule:v.Explore.schedule algo in
      e.Replay.dropped = 0
      && List.length v.Explore.schedule = v.Explore.at_step
      && List.length e.Replay.steps = v.Explore.at_step
      && List.map (fun (_, p, o) -> (p, o)) e.Replay.outputs = v.Explore.outputs)
    r.Explore.violations

let step_oracle_tests =
  [
    qtest ~count:40 "explorer witnesses replay through Runner.step"
      QCheck.(
        pair (pair (int_range 2 3) (int_range 0 2))
          (pair (pair (int_range 5 8) bool) (option (pair small_nat (int_range 0 3)))))
      (fun ((n, which), ((max_steps, canon), crash)) ->
        let pattern =
          Pattern.make ~n
            (match crash with
            | None -> []
            | Some (p, t) -> [ (pid (1 + (p mod n)), time t) ])
        in
        match which with
        | 0 ->
          replays_witnesses ~canon ~max_steps ~pattern ~detector:Perfect.canonical
            (Ct_strong.automaton ~proposals)
        | 1 ->
          replays_witnesses ~canon ~max_steps ~pattern ~detector:Strong.realistic
            (Ct_strong.automaton ~proposals)
        | _ ->
          replays_witnesses ~canon ~max_steps ~pattern
            ~detector:Partial_perfect.canonical (Rank_consensus.automaton ~proposals));
  ]

(* ---------- the incremental-fingerprint kernel under paranoid audit ---------- *)

(* [~paranoid:true] recomputes every memoized step with a direct call of
   the automaton, recomputes every configuration's fingerprint lanes from
   scratch at every expanded edge, picks the orbit representative and
   packs its key again with the step's mix inside the lane loop, and
   re-derives every interned orbit by renaming each member directly; it
   raises on any divergence from the fast paths — the oracle for the step
   memo, the delta-hashing kernel and the orbit construction.  These
   scopes are small enough that the quadratic audit stays cheap. *)
let paranoid_tests =
  [
    test "paranoid memo audit passes on canon-off walks" (fun () ->
        (* the naive tree takes each memoized step many times over;
           sleep sets and symmetry without canon walk it the same way *)
        let explore ~por ~symmetry ~paranoid =
          Explore.run ~max_steps:7 ~max_nodes:400_000 ~por ~por_lambda:por
            ?symmetry:(if symmetry then Some (sym_spec ~n) else None)
            ~d_equal ~paranoid
            ~pattern:(pattern ~n [ (1, 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)
        in
        List.iter
          (fun (label, por, symmetry) ->
            let audited = explore ~por ~symmetry ~paranoid:true in
            Alcotest.(check bool) (label ^ ": complete") true audited.Explore.complete;
            Alcotest.(check bool) (label ^ ": same report as unaudited") true
              (audited = explore ~por ~symmetry ~paranoid:false))
          [ ("naive", false, false); ("por", true, false); ("symmetry", false, true) ];
        let check outputs =
          agreement (List.filter (fun (p, _) -> not (Pid.equal p (pid 1))) outputs)
        in
        let rank =
          Explore.run ~max_steps:8 ~max_nodes:400_000 ~capture:true ~paranoid:true
            ~pattern:(pattern ~n [ (1, 1) ])
            ~detector:Partial_perfect.canonical ~check
            (Rank_consensus.automaton ~proposals)
        in
        Alcotest.(check bool) "rank+P<: complete" true rank.Explore.complete);
    test "paranoid audit passes at group order 120 (n=5 failure-free, full stack)"
      (fun () ->
        let n = 5 in
        let report =
          Explore.run ~max_steps:6 ~max_nodes:400_000 ~canon:true ~por:true
            ~por_lambda:true ~symmetry:(sym_spec ~n) ~d_equal ~paranoid:true
            ~pattern:(Pattern.failure_free ~n)
            ~detector:Perfect.canonical
            ~check:
              (Explore.both agreement
                 (Explore.validity_check ~n ~proposals ~equal:Int.equal))
            (Ct_strong.automaton ~proposals)
        in
        Alcotest.(check bool) "complete" true report.Explore.complete;
        Alcotest.(check bool) "orbits collapsed" true
          (report.Explore.orbit_collapsed > 0);
        Alcotest.(check int) "no violations" 0
          (List.length report.Explore.violations));
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
      suite "resolved-scope" scope_tests;
      suite "strategies-and-stores" strategy_tests;
      suite "step-oracle" step_oracle_tests;
      suite "paranoid-fingerprint-audit" paranoid_tests;
    ]

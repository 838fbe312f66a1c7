open Rlfd_kernel
open Helpers

(* ---------- Pid ---------- *)

let pid_tests =
  [
    test "of_int/to_int roundtrip" (fun () ->
        Alcotest.(check int) "p7" 7 (Pid.to_int (pid 7)));
    test "of_int rejects zero" (fun () ->
        Alcotest.check_raises "0 invalid"
          (Invalid_argument "Pid.of_int: process indices are 1-based") (fun () ->
            ignore (pid 0)));
    test "all ~n lists 1..n" (fun () ->
        Alcotest.(check (list int)) "1..4" [ 1; 2; 3; 4 ]
          (List.map Pid.to_int (Pid.all ~n:4)));
    test "all rejects n=0" (fun () ->
        Alcotest.check_raises "n=0" (Invalid_argument "Pid.all: n must be positive")
          (fun () -> ignore (Pid.all ~n:0)));
    test "lower_than" (fun () ->
        Alcotest.(check (list int)) "below p3" [ 1; 2 ]
          (List.map Pid.to_int (Pid.lower_than (pid 3))));
    test "lower_than p1 is empty" (fun () ->
        Alcotest.(check (list int)) "below p1" [] (List.map Pid.to_int (Pid.lower_than (pid 1))));
    test "ordering is index order" (fun () ->
        Alcotest.(check bool) "p2 < p10" true (Pid.compare (pid 2) (pid 10) < 0));
    test "universe" (fun () ->
        Alcotest.(check int) "5 processes" 5 (Pid.Set.cardinal (Pid.universe ~n:5)));
    test "set pretty-printing" (fun () ->
        Alcotest.(check string) "render" "{p1,p3}"
          (Format.asprintf "%a" Pid.Set.pp (Pid.Set.of_ints [ 3; 1 ])));
  ]

(* ---------- Time ---------- *)

let time_tests =
  [
    test "zero and succ" (fun () ->
        Alcotest.(check int) "succ zero" 1 (Time.to_int (Time.succ Time.zero)));
    test "of_int rejects negatives" (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Time.of_int: time is a natural number") (fun () ->
            ignore (time (-1))));
    test "add" (fun () -> Alcotest.(check int) "3+4" 7 (Time.to_int (Time.add (time 3) 4)));
    test "comparisons" (fun () ->
        Alcotest.(check bool) "3 < 4" true Time.(time 3 < time 4);
        Alcotest.(check bool) "4 <= 4" true Time.(time 4 <= time 4);
        Alcotest.(check bool) "5 > 4" true Time.(time 5 > time 4));
    test "range inclusive" (fun () ->
        Alcotest.(check (list int)) "2..5" [ 2; 3; 4; 5 ]
          (List.map Time.to_int (Time.range (time 2) (time 5))));
    test "range empty when reversed" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Time.range (time 5) (time 2))));
  ]

(* ---------- Rng ---------- *)

let rng_tests =
  [
    test "deterministic from seed" (fun () ->
        let a = Rng.make 42 and b = Rng.make 42 in
        let xs = List.init 20 (fun _ -> Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1000) in
        Alcotest.(check (list int)) "same stream" xs ys);
    test "different seeds differ" (fun () ->
        let a = Rng.make 1 and b = Rng.make 2 in
        let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        Alcotest.(check bool) "streams differ" false (xs = ys));
    test "split is independent of parent draws" (fun () ->
        let parent = Rng.make 7 in
        let child1 = Rng.split parent 1 in
        ignore (Rng.int parent 10);
        (* splitting depends only on state at split time; re-split from a
           fresh generator with same history must agree *)
        let parent2 = Rng.make 7 in
        let child2 = Rng.split parent2 1 in
        Alcotest.(check int) "same child stream" (Rng.int child1 1_000_000)
          (Rng.int child2 1_000_000));
    test "derive is pure" (fun () ->
        let a = Rng.derive ~seed:9 ~salts:[ 1; 2; 3 ] in
        let b = Rng.derive ~seed:9 ~salts:[ 1; 2; 3 ] in
        Alcotest.(check int) "equal" (Rng.int a 1_000_000) (Rng.int b 1_000_000));
    test "int rejects non-positive bound" (fun () ->
        Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int (Rng.make 1) 0)));
    test "pick rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
            ignore (Rng.pick (Rng.make 1) ([] : int list))));
    qtest "int stays in bounds"
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let g = Rng.make seed in
        let v = Rng.int g bound in
        v >= 0 && v < bound);
    qtest "int_in stays in interval"
      QCheck.(triple small_int (int_range 0 100) (int_range 0 100))
      (fun (seed, a, b) ->
        let lo = min a b and hi = max a b in
        let v = Rng.int_in (Rng.make seed) lo hi in
        v >= lo && v <= hi);
    qtest "float stays in bounds" QCheck.small_int (fun seed ->
        let v = Rng.float (Rng.make seed) 1.0 in
        v >= 0.0 && v < 1.0);
    qtest "shuffle is a permutation" QCheck.(pair small_int (list small_int))
      (fun (seed, xs) ->
        let shuffled = Rng.shuffle (Rng.make seed) xs in
        List.sort compare shuffled = List.sort compare xs);
    qtest "subset is a sublist" QCheck.(pair small_int (list small_int))
      (fun (seed, xs) ->
        let sub = Rng.subset (Rng.make seed) ~p:0.5 xs in
        List.for_all (fun x -> List.mem x xs) sub);
    test "of_path is pure and distinct per path" (fun () ->
        let a = Rng.of_path ~seed:9 [ 4; 2 ] in
        let b = Rng.of_path ~seed:9 [ 4; 2 ] in
        Alcotest.(check int) "equal streams" (Rng.int a 1_000_000) (Rng.int b 1_000_000);
        let c = Rng.of_path ~seed:9 [ 4; 3 ] in
        let d = Rng.of_path ~seed:9 [ 4; 2 ] in
        Alcotest.(check bool) "sibling paths differ" false
          (List.init 8 (fun _ -> Rng.int c 1_000_000)
          = List.init 8 (fun _ -> Rng.int d 1_000_000)));
    test "of_path sibling streams don't correlate" (fun () ->
        (* Pearson correlation of consecutive sibling job streams: the
           campaign engine derives job i's stream as of_path [i], so
           neighbouring jobs must look independent. *)
        let draws g = List.init 1_000 (fun _ -> Rng.float g 1.0) in
        let correlation xs ys =
          let mx = Stats.mean xs and my = Stats.mean ys in
          let cov =
            List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. xs ys
            /. float_of_int (List.length xs)
          in
          cov /. (Stats.stddev xs *. Stats.stddev ys)
        in
        List.iter
          (fun i ->
            let r =
              correlation
                (draws (Rng.of_path ~seed:2002 [ i ]))
                (draws (Rng.of_path ~seed:2002 [ i + 1 ]))
            in
            Alcotest.(check bool)
              (Format.asprintf "|corr(job %d, job %d)| = %.3f < 0.1" i (i + 1)
                 (Float.abs r))
              true
              (Float.abs r < 0.1))
          [ 0; 1; 2; 3; 4 ]);
    test "of_path first draws are uniform across siblings" (fun () ->
        let buckets = Array.make 10 0 in
        for i = 0 to 1_999 do
          let v = Rng.int (Rng.of_path ~seed:7 [ i ]) 10 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iter
          (fun c ->
            Alcotest.(check bool)
              (Format.asprintf "bucket count %d in [140,260]" c)
              true (c > 140 && c < 260))
          buckets);
    test "int is roughly uniform" (fun () ->
        let g = Rng.make 123 in
        let buckets = Array.make 10 0 in
        for _ = 1 to 10_000 do
          let v = Rng.int g 10 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iter
          (fun c ->
            Alcotest.(check bool)
              (Format.asprintf "bucket count %d in [800,1200]" c)
              true
              (c > 800 && c < 1200))
          buckets);
    test "exponential has the requested mean" (fun () ->
        let g = Rng.make 5 in
        let samples = List.init 20_000 (fun _ -> Rng.exponential g ~mean:10.0) in
        let mean = Stats.mean samples in
        Alcotest.(check bool)
          (Format.asprintf "mean %.2f near 10" mean)
          true
          (mean > 9.0 && mean < 11.0));
  ]

(* ---------- Pqueue ---------- *)

let pqueue_tests =
  [
    test "pop empty" (fun () ->
        let q : int Pqueue.t = Pqueue.create () in
        Alcotest.(check bool) "none" true (Pqueue.pop q = None));
    test "min-first" (fun () ->
        let q = Pqueue.create () in
        List.iter (fun p -> Pqueue.add q ~prio:p p) [ 5; 1; 4; 2; 3 ];
        let order = List.init 5 (fun _ -> match Pqueue.pop q with Some (p, _) -> p | None -> -1) in
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order);
    test "ties break by insertion order" (fun () ->
        let q = Pqueue.create () in
        List.iter (fun v -> Pqueue.add q ~prio:7 v) [ "a"; "b"; "c" ];
        let order =
          List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?")
        in
        Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] order);
    qtest "pops in sorted order" QCheck.(list (int_range 0 1000)) (fun prios ->
        let q = Pqueue.create () in
        List.iter (fun p -> Pqueue.add q ~prio:p p) prios;
        let rec drain acc =
          match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
        in
        drain [] = List.sort compare prios);
    (* The slow oracle: random interleavings of add and pop against a list
       model ordered by (priority, insertion). Priorities are drawn
       relative to the last one popped (below it, on it, just above, far
       above), so buckets open behind, at and ahead of the head, with many
       ties. Values are random, so a queue that breaks ties by value, or
       pops a bucket newest first, disagrees with the model. *)
    (let op =
       QCheck.Gen.(
         frequency
           [ (3, return None);
             ( 5,
               map2
                 (fun d v -> Some (d, v))
                 (frequency
                    [ (2, int_range (-3) (-1)); (3, return 0); (3, int_range 1 3);
                      (1, int_range 1_000 1_000_000) ])
                 (int_bound 9) ) ])
     in
     let print = function
       | None -> "pop"
       | Some (d, v) -> Printf.sprintf "add last%+d %d" d v
     in
     qtest ~count:300 "pops in (priority, insertion) order, like a list model"
       (QCheck.make
          ~print:QCheck.Print.(list print)
          QCheck.Gen.(list_size (int_range 0 200) op))
       (fun ops ->
         let q = Pqueue.create () in
         (* (prio, insertion index, value) of every queued element *)
         let model = ref [] and seq = ref 0 and last = ref 0 in
         let step op =
           let popped_ok =
             match op with
             | Some (d, v) ->
               Pqueue.add q ~prio:(!last + d) v;
               model := (!last + d, !seq, v) :: !model;
               incr seq;
               true
             | None ->
               let expected =
                 match List.sort compare !model with
                 | [] -> None
                 | (p, _, v) :: rest ->
                   model := rest;
                   last := p;
                   Some (p, v)
               in
               Pqueue.pop q = expected
           in
           popped_ok && Pqueue.length q = List.length !model
         in
         (* then drain: every element left must come out in model order *)
         List.for_all step (ops @ List.map (fun _ -> None) ops)));
  ]

(* ---------- Stats ---------- *)

let stats_tests =
  [
    test "mean of empty is 0" (fun () -> Alcotest.(check (float 1e-9)) "0" 0. (Stats.mean []));
    test "mean" (fun () ->
        Alcotest.(check (float 1e-9)) "2.5" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]));
    test "stddev of constant is 0" (fun () ->
        Alcotest.(check (float 1e-9)) "0" 0. (Stats.stddev [ 5.; 5.; 5. ]));
    test "median" (fun () ->
        Alcotest.(check (float 1e-9)) "3" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ]));
    test "percentile bounds" (fun () ->
        let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
        Alcotest.(check (float 1e-9)) "p99" 99. (Stats.percentile xs 0.99);
        Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile xs 1.0));
    test "percentile rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty data")
          (fun () -> ignore (Stats.percentile [] 0.5)));
    test "min/max" (fun () ->
        Alcotest.(check (float 1e-9)) "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
        Alcotest.(check (float 1e-9)) "max" 3. (Stats.maximum [ 3.; 1.; 2. ]));
    test "histogram covers all samples" (fun () ->
        let xs = List.init 50 (fun i -> float_of_int i) in
        let hist = Stats.histogram ~buckets:5 xs in
        let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 hist in
        Alcotest.(check int) "total" 50 total);
    test "histogram of empty" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Stats.histogram ~buckets:4 [])));
    test "histogram rejects non-positive buckets" (fun () ->
        Alcotest.check_raises "zero buckets"
          (Invalid_argument "Stats.histogram: buckets must be positive") (fun () ->
            ignore (Stats.histogram ~buckets:0 [ 1.; 2. ]));
        Alcotest.check_raises "negative buckets"
          (Invalid_argument "Stats.histogram: buckets must be positive") (fun () ->
            ignore (Stats.histogram ~buckets:(-3) [])));
    test "histogram of a single element" (fun () ->
        let hist = Stats.histogram ~buckets:3 [ 7. ] in
        Alcotest.(check int) "three buckets" 3 (List.length hist);
        let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 hist in
        Alcotest.(check int) "sample counted once" 1 total);
    test "count/sum on empty and singleton" (fun () ->
        Alcotest.(check int) "count []" 0 (Stats.count []);
        Alcotest.(check (float 1e-9)) "sum []" 0. (Stats.sum []);
        Alcotest.(check int) "count [x]" 1 (Stats.count [ 3. ]);
        Alcotest.(check (float 1e-9)) "sum [x]" 3. (Stats.sum [ 3. ]));
    test "sum" (fun () ->
        Alcotest.(check (float 1e-9)) "10" 10. (Stats.sum [ 1.; 2.; 3.; 4. ]));
    test "variance edges" (fun () ->
        Alcotest.(check (float 1e-9)) "variance []" 0. (Stats.variance []);
        Alcotest.(check (float 1e-9)) "variance [x]" 0. (Stats.variance [ 42. ]));
    test "variance is squared stddev" (fun () ->
        let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
        Alcotest.(check (float 1e-9)) "consistent" (Stats.stddev xs ** 2.)
          (Stats.variance xs));
    qtest "variance is non-negative" QCheck.(list (float_bound_exclusive 100.))
      (fun xs -> Stats.variance xs >= 0.);
  ]

(* ---------- Table ---------- *)

let table_tests =
  [
    test "renders header and rows" (fun () ->
        let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
        Table.add_row t [ "1"; "2" ];
        let s = Format.asprintf "%a" Table.pp t in
        Alcotest.(check bool) "has title" true
          (String.length s > 0 && String.sub s 0 2 = "==");
        Alcotest.(check bool) "mentions column" true
          (contains_substring ~needle:"bb" s));
    test "rejects ragged rows" (fun () ->
        let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
        Alcotest.check_raises "ragged" (Invalid_argument "Table.add_row: row width mismatch")
          (fun () -> Table.add_row t [ "only-one" ]));
    test "cell helpers" (fun () ->
        Alcotest.(check string) "int" "42" (Table.cell_int 42);
        Alcotest.(check string) "float" "3.14" (Table.cell_float 3.14159);
        Alcotest.(check string) "bool" "yes" (Table.cell_bool true);
        Alcotest.(check string) "pct" "25.0%" (Table.cell_pct 0.25));
  ]

(* ---------- Hashing ---------- *)

let hashing_tests =
  [
    test "mix_int is deterministic and spreads nearby inputs" (fun () ->
        Alcotest.(check int) "same input, same output" (Hashing.mix_int 42)
          (Hashing.mix_int 42);
        let outs = List.init 1000 Hashing.mix_int in
        Alcotest.(check int) "1000 consecutive ints, 1000 distinct hashes" 1000
          (List.length (List.sort_uniq Int.compare outs)));
    test "of_string_int distinguishes strings and is deterministic" (fun () ->
        Alcotest.(check int) "stable" (Hashing.of_string_int "abc")
          (Hashing.of_string_int "abc");
        Alcotest.(check bool) "abc <> acb" false
          (Hashing.of_string_int "abc" = Hashing.of_string_int "acb");
        Alcotest.(check bool) "empty <> nul" false
          (Hashing.of_string_int "" = Hashing.of_string_int "\000"));
    test "combine is order-sensitive" (fun () ->
        let a = Hashing.mix_int 1 and b = Hashing.mix_int 2 in
        Alcotest.(check bool) "ab <> ba" false
          (Hashing.combine_int (Hashing.combine_int 0 a) b
          = Hashing.combine_int (Hashing.combine_int 0 b) a));
    test "table stores and retrieves thousands of keys across growth" (fun () ->
        let t = Hashing.Table.create ~initial:8 () in
        for i = 0 to 4999 do
          let s = string_of_int i in
          Hashing.Table.set t ~key:(Hashing.of_string_int s) s i
        done;
        Alcotest.(check int) "5000 distinct keys" 5000 (Hashing.Table.length t);
        Alcotest.(check bool) "grew past initial" true
          (Hashing.Table.capacity t > 8);
        for i = 0 to 4999 do
          let s = string_of_int i in
          match Hashing.Table.find t ~key:(Hashing.of_string_int s) s with
          | Some v when v = i -> ()
          | _ -> Alcotest.fail (Printf.sprintf "lost key %d" i)
        done);
    test "a fingerprint collision never conflates different keys" (fun () ->
        (* Force the collision by storing two different byte strings under
           the same fingerprint: the table must fall back to full-string
           comparison, exactly what protects the explorer's visited set. *)
        let t = Hashing.Table.create ~initial:8 () in
        let key = 0xDEADBEEF in
        Hashing.Table.set t ~key "first" 1;
        Alcotest.(check (option int)) "other bytes, same key: absent" None
          (Hashing.Table.find t ~key "second");
        Hashing.Table.set t ~key "second" 2;
        Alcotest.(check (option int)) "first still there" (Some 1)
          (Hashing.Table.find t ~key "first");
        Alcotest.(check (option int)) "second stored separately" (Some 2)
          (Hashing.Table.find t ~key "second");
        Alcotest.(check int) "two entries" 2 (Hashing.Table.length t));
    test "set overwrites in place" (fun () ->
        let t = Hashing.Table.create () in
        let key = Hashing.of_string_int "k" in
        Hashing.Table.set t ~key "k" 1;
        Hashing.Table.set t ~key "k" 2;
        Alcotest.(check (option int)) "latest value" (Some 2)
          (Hashing.Table.find t ~key "k");
        Alcotest.(check int) "one entry" 1 (Hashing.Table.length t));
  ]

(* ---------- Intern: hashconsing for the fingerprint kernel ---------- *)

(* The symmetric group S_m acting on int arrays of length m by moving the
   value at position i to position pi(i).  Elements are image arrays,
   identity first; [compose j k] is found by search, independently of
   the explorer's table. *)
let sym_group m =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l
  in
  let elems = Array.of_list (List.map Array.of_list (perms (List.init m Fun.id))) in
  let act pi v =
    let w = Array.make m 0 in
    Array.iteri (fun i x -> w.(pi.(i)) <- x) v;
    w
  in
  let index pi =
    let rec go k = if elems.(k) = pi then k else go (k + 1) in
    go 0
  in
  let compose j k = index (Array.map (fun i -> elems.(j).(i)) elems.(k)) in
  (elems, act, compose)

let encode_ints v = String.concat "," (Array.to_list (Array.map string_of_int v))

let orbit_tests =
  [
    qtest ~count:100 "orbits from the multiplication table equal direct renaming"
      QCheck.(pair bool (list_of_size Gen.(1 -- 12) (pair small_nat small_nat)))
      (fun (four, draws) ->
        let m = if four then 4 else 3 in
        let elems, act, compose = sym_group m in
        let order = Array.length elems in
        let calls = ref 0 in
        let rename k v =
          incr calls;
          act elems.(k) v
        in
        let t =
          Intern.create ~group:{ Intern.order; rename; compose } ~encode:encode_ints ()
        in
        (* a draw is a value over [width] distinct symbols: width 1 is fixed
           by the whole group, width m has a trivial stabilizer *)
        let value (width, seed) =
          let width = 1 + (width mod m) in
          Array.init m (fun i -> (seed + (i * 7)) mod width)
        in
        let seen = Hashtbl.create 64 in
        let entries = ref [] in
        List.for_all
          (fun d ->
            let v = value d in
            let orbit =
              List.sort_uniq compare (Array.to_list (Array.map (fun pi -> act pi v) elems))
            in
            let fresh = not (Hashtbl.mem seen v) in
            let before = Intern.length t and calls0 = !calls in
            let e = Intern.intern t v in
            if fresh then List.iter (fun w -> Hashtbl.replace seen w ()) orbit;
            entries := e :: List.init order (Intern.ren e) @ !entries;
            Intern.value e = v
            && !calls - calls0 = (if fresh then order - 1 else 0)
            && Intern.length t - before = (if fresh then List.length orbit else 0)
            && List.for_all
                 (fun e ->
                   List.for_all
                     (fun j ->
                       let r = Intern.ren e j in
                       Intern.value r = act elems.(j) (Intern.value e)
                       && (Intern.hs e).(j) = Intern.h r
                       && Intern.h r
                          = Hashing.of_string_int (encode_ints (Intern.value r)))
                     (List.init order Fun.id))
                 !entries
            (* dense ids, in bijection with structural equality *)
            && List.sort_uniq compare (List.map Intern.id !entries)
               = List.init (Intern.length t) Fun.id
            && List.for_all
                 (fun a ->
                   List.for_all
                     (fun b ->
                       (Intern.id a = Intern.id b) = (Intern.value a = Intern.value b))
                     !entries)
                 !entries)
          draws);
  ]

let intern_tests =
  [
    test "ids are dense and in bijection with structural equality" (fun () ->
        let t = Intern.create ~encode:(fun (a, b) -> Printf.sprintf "%d,%d" a b) () in
        let e1 = Intern.intern t (1, 2) in
        let e2 = Intern.intern t (3, 4) in
        let e3 = Intern.intern t (1, 2) in
        Alcotest.(check int) "first id" 0 (Intern.id e1);
        Alcotest.(check int) "second id" 1 (Intern.id e2);
        Alcotest.(check int) "structurally equal value, same id" (Intern.id e1)
          (Intern.id e3);
        Alcotest.(check bool) "same entry physically" true (e1 == e3);
        Alcotest.(check int) "two distinct values" 2 (Intern.length t));
    test "entries carry the value, encoding and fingerprint" (fun () ->
        let encode = string_of_int in
        let t = Intern.create ~encode () in
        let e = Intern.intern t 42 in
        Alcotest.(check int) "value recoverable" 42 (Intern.value e);
        Alcotest.(check string) "enc is the canonical bytes" (encode 42)
          (Intern.enc e);
        Alcotest.(check bool) "h is the fingerprint of enc" true
          (Intern.h e = Hashing.of_string_int (encode 42)));
    test "renaming lanes intern the whole orbit once" (fun () ->
        (* A 2-element group: identity and negation. *)
        let t =
          Intern.create
            ~group:
              {
                Intern.order = 2;
                rename = (fun k v -> if k = 0 then v else -v);
                compose = (fun j k -> (j + k) mod 2);
              }
            ~encode:string_of_int ()
        in
        let e = Intern.intern t 5 in
        Alcotest.(check bool) "lane 0 is the entry itself" true
          (Intern.ren e 0 == e);
        Alcotest.(check int) "lane 1 holds the renamed value" (-5)
          (Intern.value (Intern.ren e 1));
        Alcotest.(check bool) "renaming twice leads back" true
          (Intern.ren (Intern.ren e 1) 1 == e);
        Alcotest.(check int) "orbit interned eagerly" 2 (Intern.length t);
        (* A fixed point of the group renames to itself. *)
        let z = Intern.intern t 0 in
        Alcotest.(check bool) "fixed point, same entry" true (Intern.ren z 1 == z);
        Alcotest.(check (array int)) "lane fingerprints"
          [| Intern.h e; Intern.h (Intern.ren e 1) |]
          (Intern.hs e));
    test "fingerprints agree across independent tables" (fun () ->
        let t1 = Intern.create ~encode:string_of_int () in
        let t2 = Intern.create ~encode:string_of_int () in
        ignore (Intern.intern t1 99);
        Alcotest.(check bool) "h is a pure function of the value" true
          (Intern.h (Intern.intern t1 7) = Intern.h (Intern.intern t2 7)));
    test "create rejects a group of order < 1" (fun () ->
        Alcotest.check_raises "order = 0"
          (Invalid_argument "Intern.create: group order < 1") (fun () ->
            ignore
              (Intern.create
                 ~group:
                   { Intern.order = 0; rename = (fun _ v -> v); compose = (fun _ _ -> 0) }
                 ~encode:string_of_int ())));
  ]

let () =
  Alcotest.run "kernel"
    [
      suite "pid" pid_tests;
      suite "time" time_tests;
      suite "rng" rng_tests;
      suite "pqueue" pqueue_tests;
      suite "stats" stats_tests;
      suite "table" table_tests;
      suite "hashing" hashing_tests;
      suite "intern" (intern_tests @ orbit_tests);
    ]

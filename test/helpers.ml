(* Shared helpers for the test suites. *)

open Rlfd_kernel
open Rlfd_fd

let pid = Pid.of_int

let time = Time.of_int

let pids = List.map pid

let pattern ~n crashes =
  Pattern.make ~n (List.map (fun (p, t) -> (pid p, time t)) crashes)

let check_holds what result =
  Alcotest.(check bool)
    (Format.asprintf "%s (%a)" what Classes.pp_result result)
    true (Classes.holds result)

let check_violated what result =
  Alcotest.(check bool)
    (Format.asprintf "%s should be violated" what)
    false (Classes.holds result)

let check_all_hold what checks =
  List.iter (fun (name, result) -> check_holds (what ^ ": " ^ name) result) checks

(* A deterministic consensus workload. *)
let proposals p = 1000 + Pid.to_int p

let suite name cases = (name, cases)

let test name f = Alcotest.test_case name `Quick f

let slow_test name f = Alcotest.test_case name `Slow f

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

(* Run a consensus-style automaton to completion. *)
let run_consensus ?(horizon = 6000) ?(scheduler = `Fair) ~detector ~pattern automaton =
  let scheduler =
    match scheduler with
    | `Fair -> Rlfd_sim.Scheduler.fair ()
    | `Random seed -> Rlfd_sim.Scheduler.random ~seed ~lambda_bias:0.3
  in
  Rlfd_sim.Runner.run ~pattern ~detector ~scheduler ~horizon:(time horizon)
    ~until:(Rlfd_sim.Runner.stop_when_all_correct_output pattern)
    automaton

let decision_values r =
  List.map (fun (_, _, v) -> v) r.Rlfd_sim.Runner.outputs

(* Sampled patterns for property tests: a pattern family index and a seed. *)
let arb_pattern ~n ~horizon =
  let open QCheck in
  let families = Pattern.Family.all in
  let gen =
    Gen.map2
      (fun fam_idx seed ->
        let family = List.nth families (fam_idx mod List.length families) in
        let rng = Rng.derive ~seed ~salts:[ 0x7E57 ] in
        Pattern.Family.generate family ~n ~horizon:(time horizon) rng)
      (Gen.int_bound (List.length families - 1))
      (Gen.int_bound 1_000_000)
  in
  make ~print:(Format.asprintf "%a" Pattern.pp) gen

(* ---------- reader fuzzing ---------- *)

(* One corruption of a line-oriented artifact: a byte flipped (xor with a
   non-zero mask), the text cut short, or a line deleted or duplicated.
   Positions are taken modulo the text's size, so any int is valid. *)
type mutation =
  | Flip of int * int
  | Truncate of int
  | Delete_line of int
  | Duplicate_line of int

let mutate text = function
  | Flip (i, mask) ->
    if text = "" then text
    else
      let i = i mod String.length text in
      String.mapi
        (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c)
        text
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | (Delete_line k | Duplicate_line k) as m ->
    let lines = String.split_on_char '\n' text in
    let i = k mod List.length lines in
    List.mapi
      (fun j l ->
        if j <> i then [ l ]
        else match m with Delete_line _ -> [] | _ -> [ l; l ])
      lines
    |> List.concat |> String.concat "\n"

let pp_mutation = function
  | Flip (i, mask) -> Printf.sprintf "flip %d ^ 0x%02x" i mask
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Delete_line k -> Printf.sprintf "delete-line %d" k
  | Duplicate_line k -> Printf.sprintf "duplicate-line %d" k

(* One to three mutations, applied in order. *)
let arb_mutations =
  let open QCheck in
  let mutation =
    Gen.(
      oneof
        [ map2 (fun i mask -> Flip (i, mask)) nat (int_range 1 255);
          map (fun k -> Truncate k) nat;
          map (fun k -> Delete_line k) nat;
          map (fun k -> Duplicate_line k) nat ])
  in
  make
    ~print:(fun ms -> String.concat "; " (List.map pp_mutation ms))
    Gen.(list_size (int_range 1 3) mutation)

(* The reader property: on every corruption of the valid artifact [text]
   [read] returns — [Ok] or [Error], never an exception — and on [text]
   itself its answer satisfies [roundtrip]. *)
let qtest_reader name ~text ~read ~roundtrip =
  qtest ~count:300 name arb_mutations (fun ms ->
      ignore (read (List.fold_left mutate text ms));
      roundtrip (read text))

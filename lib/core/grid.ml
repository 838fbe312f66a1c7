open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type cell = {
  detector : string;
  environment : string;
  runs : int;
  passes : int;
  first_failure : string option;
}

let pp_cell ppf c =
  Format.fprintf ppf "%s x %s: %d/%d%s" c.detector c.environment c.passes c.runs
    (match c.first_failure with None -> "" | Some why -> " (" ^ why ^ ")")

let pass_rate c = if c.runs = 0 then 1.0 else float_of_int c.passes /. float_of_int c.runs

let horizon = Time.of_int 6000

let crash_horizon = Time.of_int (Stdlib.min 300 (Time.to_int horizon / 4))

let run ~n ~seeds ~detectors ~environments ~judge automaton =
  List.concat_map
    (fun (detector_name, detector) ->
      List.map
        (fun env ->
          let outcomes =
            List.map
              (fun seed ->
                let rng = Rng.derive ~seed ~salts:[ 0x6D; seed ] in
                let pattern = Environment.sample env ~n ~horizon:crash_horizon rng in
                let scheduler =
                  if seed mod 2 = 0 then Scheduler.fair ()
                  else Scheduler.random ~seed ~lambda_bias:0.3
                in
                let r =
                  Runner.run ~pattern ~detector ~scheduler ~horizon
                    ~until:(Runner.stop_when_all_correct_output pattern)
                    automaton
                in
                match
                  List.find_opt (fun (_, res) -> not (Classes.holds res)) (judge r)
                with
                | None -> Ok ()
                | Some (clause, res) ->
                  Error (Format.asprintf "%s: %a" clause Classes.pp_result res))
              seeds
          in
          let passes = List.length (List.filter Result.is_ok outcomes) in
          let first_failure =
            List.find_map (function Error e -> Some e | Ok () -> None) outcomes
          in
          {
            detector = detector_name;
            environment = Environment.name env;
            runs = List.length seeds;
            passes;
            first_failure;
          })
        environments)
    detectors

let to_table ~title cells =
  let t =
    Table.create ~title
      ~columns:[ "detector"; "environment"; "pass rate"; "first failure" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [ c.detector; c.environment;
          Format.asprintf "%d/%d" c.passes c.runs;
          (match c.first_failure with None -> "-" | Some why -> why) ])
    cells;
  t

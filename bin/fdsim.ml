(* fdsim - command-line driver for the "Realistic Look At Failure Detectors"
   reproduction.

     fdsim check                       run every claim of the paper
     fdsim survey                      the hierarchy / realism survey
     fdsim run --algo ... --fd ...     one consensus run, with verdicts
     fdsim trb --sender 2 ...          one TRB instance
     fdsim reduce --impl ...           the T(D->P) transformation
     fdsim qos --model psync ...       heartbeat detector quality of service
     fdsim gms --model sync ...        the group membership service
     fdsim vsync ...                   view-synchronous multicast
     fdsim paxos ...                   Omega-based majority consensus
     fdsim nbac --no 3 ...             non-blocking atomic commitment
     fdsim explore --algo rank ...     exhaustive schedule exploration
     fdsim replay trace.jsonl          re-execute a flight recording, verify it
     fdsim shrink trace.jsonl          minimize a recorded violation schedule
     fdsim render trace.jsonl          spacetime diagram of a recording
     fdsim metrics --json ...          run a scenario, dump the metrics registry
     fdsim campaign --jobs 4 ...       sharded multicore experiment campaign *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Rlfd_reduction
open Rlfd_net
open Rlfd_membership
module Theorems = Rlfd_core.Theorems
module Obs = Rlfd_obs
module Campaign = Rlfd_campaign
open Cmdliner

let proposals p = 100 + Pid.to_int p

(* ---------- shared argument parsing ---------- *)

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some p, Some t when p >= 1 && t >= 0 -> Ok (p, t)
      | _ -> Error (`Msg "expected <pid>@<time> with pid >= 1, time >= 0"))
    | _ -> Error (`Msg "expected <pid>@<time>, e.g. 2@40")
  in
  let print ppf (p, t) = Format.fprintf ppf "%d@%d" p t in
  Arg.conv (parse, print)

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 2002 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let horizon_arg =
  Arg.(value & opt int 6000 & info [ "horizon" ] ~docv:"TICKS" ~doc:"Run length cap.")

let crashes_arg =
  Arg.(
    value
    & opt_all crash_conv []
    & info [ "crash" ] ~docv:"PID@TIME"
        ~doc:"Crash process PID at TIME (repeatable), e.g. --crash 2@40.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full step-by-step trace.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Archive the run trace as JSON Lines (one event per line) to \
           $(docv); '-' writes to stdout.")

(* Both --trace and --trace-out feed off one sink, so the printed trace and
   the JSONL archive are two renderings of the same event stream and cannot
   diverge.  Returns (sink, memory-sink, close). *)
let trace_sink ~trace ~trace_out =
  let mem = if trace then Obs.Trace.memory () else Obs.Trace.null in
  let jsonl, close =
    match trace_out with
    | None -> (Obs.Trace.null, fun () -> ())
    | Some "-" -> (Obs.Trace.to_channel stdout, fun () -> flush stdout)
    | Some file ->
      let oc =
        try open_out file
        with Sys_error msg ->
          Format.eprintf "fdsim: cannot open trace file: %s@." msg;
          exit 2
      in
      (Obs.Trace.to_channel oc, fun () -> close_out oc)
  in
  (Obs.Trace.tee mem jsonl, mem, close)

let pattern_of ~n crashes =
  try
    Pattern.make ~n
      (List.map (fun (p, t) -> (Pid.of_int p, Time.of_int t)) crashes)
  with Invalid_argument msg ->
    Format.eprintf "fdsim: %s@." msg;
    exit 2

let detector_names =
  [ ("P", `P); ("P-delayed", `P_delayed); ("ev-P", `Ev_p); ("S", `S);
    ("S-clairvoyant", `S_clairvoyant); ("ev-S", `Ev_s); ("ev-S-paranoid", `Ev_s_paranoid);
    ("scribe", `Scribe); ("marabout", `Marabout); ("P<", `P_lt) ]

let detector_arg =
  Arg.(
    value
    & opt (enum detector_names) `P
    & info [ "fd" ] ~docv:"DETECTOR"
        ~doc:
          (Format.asprintf "Failure detector: %s."
             (String.concat ", " (List.map fst detector_names))))

let make_detector ~seed = function
  | `P -> Perfect.canonical
  | `P_delayed -> Perfect.delayed ~lag:10
  | `Ev_p -> Ev_perfect.canonical ~stabilization:(Time.of_int 200) ~seed
  | `S -> Strong.realistic
  | `S_clairvoyant -> Strong.clairvoyant
  | `Ev_s -> Ev_strong.canonical ~seed ~noise:0.2
  | `Ev_s_paranoid -> Ev_strong.paranoid ~stabilization:(Time.of_int 400)
  | `Scribe -> Scribe.as_suspicions
  | `Marabout -> Marabout.canonical
  | `P_lt -> Partial_perfect.canonical

let scheduler_arg =
  Arg.(
    value
    & opt (enum [ ("fair", `Fair); ("random", `Random) ]) `Fair
    & info [ "scheduler" ] ~docv:"SCHED" ~doc:"Scheduler: fair or random.")

let make_scheduler ~seed = function
  | `Fair -> Scheduler.fair ()
  | `Random -> Scheduler.random ~seed ~lambda_bias:0.3

let link_names = [ ("sync", `Sync); ("psync", `Psync); ("async", `Async) ]

let model_arg =
  Arg.(
    value
    & opt (enum link_names) `Sync
    & info [ "model" ] ~docv:"LINK" ~doc:"Link model: sync, psync or async.")

let make_model = function
  | `Sync -> Link.Synchronous { delta = 10 }
  | `Psync -> Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 }
  | `Async -> Link.Asynchronous { mean = 15.; spike_every = 20; spike = 300 }

(* ---------- output helpers ---------- *)

let print_verdicts what checks =
  Format.printf "@.%s:@." what;
  List.iter
    (fun (name, res) -> Format.printf "  %-24s %a@." name Classes.pp_result res)
    checks;
  List.for_all (fun (_, res) -> Classes.holds res) checks

(* The only step-trace printer: renders the events captured by the memory
   sink through Trace.render, the same renderer backing the JSONL schema. *)
let print_trace mem steps =
  Format.printf "@.trace (%d steps):@." steps;
  List.iter
    (fun e -> Format.printf "  %s@." (Obs.Trace.render e))
    (Obs.Trace.contents mem)

let print_run_header ~algo ~detector ~pattern =
  Format.printf "algorithm: %s@.detector:  %s@.pattern:   %a@." algo detector
    Pattern.pp pattern

let exit_ok ok = if ok then 0 else 1

(* ---------- fdsim check ---------- *)

(* --jobs accepts a count or the literal "auto", which
   resolves to Domain.recommended_domain_count — the persistent pool
   never runs more domains than that anyway. *)
let workers_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "auto" -> Ok (Campaign.Pool.recommended_workers ())
    | s -> (
      match int_of_string_opt s with
      | Some n -> Ok n
      | None ->
        Error
          (`Msg (Printf.sprintf "expected a worker count or 'auto', got %S" s)))
  in
  Arg.conv ~docv:"N|auto" (parse, Format.pp_print_int)

let jobs_doc =
  "Worker slots for campaign-backed sweeps ('auto' = the machine's \
   recommended domain count).  Results are identical at any value; only \
   wall time changes — the persistent domain pool caps real parallelism \
   at the core count and work-stealing drains the rest."

let jobs_arg = Arg.(value & opt workers_conv 1 & info [ "jobs" ] ~docv:"N|auto" ~doc:jobs_doc)

let check_cmd =
  let run n seed trials jobs =
    let cfg =
      { Theorems.default_config with n; seed; trials; workers = jobs }
    in
    let outcomes = Theorems.all cfg in
    List.iter (fun o -> Format.printf "%a@.@." Theorems.pp_outcome o) outcomes;
    let failed = List.filter (fun o -> not o.Theorems.pass) outcomes in
    Format.printf "%d/%d claims validated@." (List.length outcomes - List.length failed)
      (List.length outcomes);
    exit_ok (failed = [])
  in
  let trials =
    Arg.(value & opt int 12 & info [ "trials" ] ~docv:"K" ~doc:"Trials per claim.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Execute every claim of the paper and report pass/fail.")
    Term.(const run $ n_arg $ seed_arg $ trials $ jobs_arg)

(* ---------- fdsim survey ---------- *)

let survey_cmd =
  let run n seed samples =
    let rows =
      Hierarchy.survey ~n ~horizon:(Time.of_int 150) ~seed ~samples
        (Hierarchy.zoo ~seed)
    in
    List.iter (fun row -> Format.printf "%a@." Hierarchy.pp_row row) rows;
    Format.printf "@.collapse (realistic & S => P): %b@." (Hierarchy.collapse_holds rows);
    exit_ok (Hierarchy.collapse_holds rows)
  in
  let samples =
    Arg.(value & opt int 25 & info [ "samples" ] ~docv:"K" ~doc:"Sampled patterns/pairs.")
  in
  Cmd.v
    (Cmd.info "survey" ~doc:"Classify the detector zoo: realism and class membership.")
    Term.(const run $ n_arg $ seed_arg $ samples)

(* ---------- fdsim run (consensus) ---------- *)

let algo_names =
  [ ("ct-strong", `Ct_strong); ("ct-ev-strong", `Ct_ev_strong);
    ("marabout", `Marabout); ("rank", `Rank) ]

let diagram_arg =
  Arg.(value & flag & info [ "diagram" ] ~doc:"Print an ASCII space-time diagram.")

let algo_arg =
  Arg.(
    value
    & opt (enum algo_names) `Ct_strong
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          (Format.asprintf "Consensus algorithm: %s."
             (String.concat ", " (List.map fst algo_names))))

(* ---------- flight recorder plumbing ----------

   Shared by run/explore (recording) and replay/shrink/render (playback).
   The artifact's scope JSON is written here and only interpreted here: the
   libraries treat it as an opaque blob. *)

type algo_consumer = {
  consume : 's 'm. ('s, 'm, Detector.suspicions, int) Model.t -> int;
}

let with_algo algo k =
  match algo with
  | `Ct_strong -> k.consume (Ct_strong.automaton ~proposals)
  | `Ct_ev_strong -> k.consume (Ct_ev_strong.automaton ~proposals)
  | `Marabout -> k.consume (Marabout_consensus.automaton ~proposals)
  | `Rank -> k.consume (Rank_consensus.automaton ~proposals)

let pp_seen_set = Format.asprintf "%a" Pid.Set.pp

(* The explorer, the replayer and the shrinker must ask the same question,
   or a recorded violation is not reproducible. *)
let consensus_explore_check ~n ~uniform pattern =
  let agreement = Explore.agreement_check ~equal:Int.equal in
  if uniform then
    Explore.both agreement (Explore.validity_check ~n ~proposals ~equal:Int.equal)
  else begin
    let faulty = Pattern.faulty pattern in
    fun outputs ->
      agreement (List.filter (fun (p, _) -> not (Pid.Set.mem p faulty)) outputs)
  end

let scope_name value names = fst (List.find (fun (_, v) -> v = value) names)

let make_scope ~cmd ~n ~seed ~crashes ~algo ~fd extra =
  let open Obs.Json in
  Obj
    ([ ("cmd", String cmd); ("n", Int n); ("seed", Int seed);
       ( "crashes",
         List (Stdlib.List.map (fun (p, t) -> List [ Int p; Int t ]) crashes) );
       ("algo", String (scope_name algo algo_names));
       ("fd", String (scope_name fd detector_names)) ]
    @ extra)

(* What playback rebuilds out of an artifact's scope JSON. *)
type artifact_scope = {
  sc_n : int;
  sc_uniform : bool;
  sc_horizon : int;
  sc_pattern : Pattern.t;
  sc_detector : Detector.suspicions Detector.t;
  sc_algo : algo_consumer -> int;
}

let decode_scope scope =
  let open Obs.Json in
  let int name = Option.bind (member name scope) to_int_opt in
  let str name = Option.bind (member name scope) to_string_opt in
  let crashes =
    match member "crashes" scope with
    | Some (List items) ->
      List.filter_map
        (function
          | List [ a; b ] -> (
            match (to_int_opt a, to_int_opt b) with
            | Some p, Some t -> Some (p, t)
            | _ -> None)
          | _ -> None)
        items
    | _ -> []
  in
  match (int "n", int "seed", str "algo", str "fd") with
  | Some n, Some seed, Some algo, Some fd -> (
    match (List.assoc_opt algo algo_names, List.assoc_opt fd detector_names) with
    | Some algo, Some fd ->
      Ok
        {
          sc_n = n;
          sc_uniform =
            Option.value
              (Option.bind (member "uniform" scope) to_bool_opt)
              ~default:true;
          sc_horizon = Option.value (int "horizon") ~default:6000;
          sc_pattern = pattern_of ~n crashes;
          sc_detector = make_detector ~seed fd;
          sc_algo = (fun k -> with_algo algo k);
        }
    | _ -> Error "scope names an unknown algo or fd")
  | _ -> Error "scope is missing n, seed, algo or fd"

let load_artifact file =
  match Obs.Recorder.load file with
  | Ok a -> a
  | Error msg ->
    Format.eprintf "fdsim: %s: %s@." file msg;
    exit 2

let scope_of_artifact (a : Obs.Recorder.t) =
  match decode_scope a.Obs.Recorder.scope with
  | Ok s -> s
  | Error msg ->
    Format.eprintf "fdsim: artifact %s@." msg;
    exit 2

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Capture a flight-recorder artifact (JSONL) to $(docv): the full \
           schedule, the detector queries and the outcome — replayable with \
           'fdsim replay', minimizable with 'fdsim shrink', drawable with \
           'fdsim render'.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Emit live progress telemetry to stderr while running.")

let run_cmd =
  let run n seed horizon crashes algo fd sched trace trace_out diagram record =
    let pattern = pattern_of ~n crashes in
    let detector = make_detector ~seed fd in
    with_algo algo
      { consume =
          (fun automaton ->
            let scheduler = make_scheduler ~seed sched in
            let sink, mem, close_trace = trace_sink ~trace ~trace_out in
            let detector, queries =
              match record with
              | None -> (detector, fun () -> [])
              | Some _ -> Detector.taped ~pp:pp_seen_set detector
            in
            let r =
              Runner.run ~pattern ~detector ~scheduler
                ~horizon:(Time.of_int horizon)
                ~until:(Runner.stop_when_all_correct_output pattern)
                ~sink ~pp_output:string_of_int ~pp_seen:pp_seen_set automaton
            in
            close_trace ();
            (match record with
            | None -> ()
            | Some file ->
              let scope =
                make_scope ~cmd:"run" ~n ~seed ~crashes ~algo ~fd
                  [ ("horizon", Obs.Json.Int horizon);
                    ( "sched",
                      Obs.Json.String
                        (match sched with `Fair -> "fair" | `Random -> "random")
                    ) ]
              in
              Obs.Recorder.save file
                (Replay.runner_artifact ~scope ~pp_output:string_of_int
                   ~queries:(queries ()) r);
              Format.printf "recorded run to %s (%d steps, %d queries)@." file
                r.Runner.steps
                (List.length (queries ())));
            print_run_header ~algo:r.Runner.algorithm
              ~detector:(Detector.name detector) ~pattern;
            Format.printf "steps: %d  messages: %d  end: %a@." r.Runner.steps
              r.Runner.sent Time.pp r.Runner.end_time;
            List.iter
              (fun (t, p, v) ->
                Format.printf "  %a %a decided %d@." Time.pp t Pid.pp p v)
              r.Runner.outputs;
            if trace then print_trace mem r.Runner.steps;
            if diagram then
              Format.printf "@.%s@."
                (Spacetime.render ~pp_output:Format.pp_print_int r);
            let ok =
              print_verdicts "consensus specification"
                (Properties.check_consensus ~uniform:true ~proposals
                   ~equal:Int.equal r)
            in
            let total = Totality.check r in
            Format.printf "  %-24s %s@." "totality (Lemma 4.1)"
              (if total = [] then "holds"
               else
                 Format.asprintf "%d violations, e.g. %a" (List.length total)
                   Totality.pp_violation (List.hd total));
            exit_ok ok)
      }
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one consensus instance and check the specification.")
    Term.(
      const run $ n_arg $ seed_arg $ horizon_arg $ crashes_arg $ algo_arg
      $ detector_arg $ scheduler_arg $ trace_arg $ trace_out_arg $ diagram_arg
      $ record_arg)

(* ---------- fdsim trb ---------- *)

let trb_cmd =
  let run n seed horizon crashes sender value fd trace trace_out =
    let pattern = pattern_of ~n crashes in
    let detector = make_detector ~seed fd in
    let sink, mem, close_trace = trace_sink ~trace ~trace_out in
    let r =
      Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
        ~horizon:(Time.of_int horizon)
        ~until:(Runner.stop_when_all_correct_output pattern)
        ~sink
        ~pp_output:(function Some v -> string_of_int v | None -> "nil")
        ~pp_seen:(Format.asprintf "%a" Pid.Set.pp)
        (Trb.automaton ~sender:(Pid.of_int sender) ~value)
    in
    close_trace ();
    print_run_header ~algo:"terminating-reliable-broadcast"
      ~detector:(Detector.name detector) ~pattern;
    List.iter
      (fun (t, p, d) ->
        Format.printf "  %a %a delivered %s@." Time.pp t Pid.pp p
          (match d with Some v -> string_of_int v | None -> "nil"))
      r.Runner.outputs;
    if trace then print_trace mem r.Runner.steps;
    let ok =
      print_verdicts "TRB specification"
        (Properties.trb_check ~sender:(Pid.of_int sender) ~value ~equal:Int.equal r)
    in
    exit_ok ok
  in
  let sender =
    Arg.(value & opt int 1 & info [ "sender" ] ~docv:"PID" ~doc:"Broadcast sender.")
  in
  let value =
    Arg.(value & opt int 4242 & info [ "value" ] ~docv:"V" ~doc:"Broadcast value.")
  in
  Cmd.v
    (Cmd.info "trb" ~doc:"Run one terminating reliable broadcast instance.")
    Term.(
      const run $ n_arg $ seed_arg $ horizon_arg $ crashes_arg $ sender $ value
      $ detector_arg $ trace_arg $ trace_out_arg)

(* ---------- fdsim reduce ---------- *)

let reduce_cmd =
  let run n seed horizon crashes impl fd =
    let pattern = pattern_of ~n crashes in
    let detector = make_detector ~seed fd in
    let print_result r instances =
      print_run_header ~algo:r.Runner.algorithm ~detector:(Detector.name detector)
        ~pattern;
      Format.printf "instances completed (max over processes): %d@." instances;
      List.iter
        (fun (t, p, s) ->
          Format.printf "  %a %a output(P) := %a@." Time.pp t Pid.pp p Pid.Set.pp s)
        r.Runner.outputs;
      print_verdicts "emulated detector vs class P" (Emulation.check_emulation_run r)
    in
    let ok =
      match impl with
      | `Trb ->
        let r =
          Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
            ~horizon:(Time.of_int horizon) Trb_to_p.automaton
        in
        let instances =
          Pid.Map.fold (fun _ st acc -> Stdlib.max acc (Trb_to_p.instances_done st))
            r.Runner.final_states 0
        in
        print_result r instances
      | (`Ct_strong | `Rank | `Marabout) as impl ->
        let impl_run impl_v =
          let r =
            Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
              ~horizon:(Time.of_int horizon)
              (Consensus_to_p.automaton ~impl:impl_v)
          in
          let instances =
            Pid.Map.fold
              (fun _ st acc -> Stdlib.max acc (Consensus_to_p.instances_decided st))
              r.Runner.final_states 0
          in
          print_result r instances
        in
        (match impl with
        | `Ct_strong -> impl_run Consensus_to_p.ct_strong_impl
        | `Rank -> impl_run Consensus_to_p.rank_impl
        | `Marabout -> impl_run Consensus_to_p.marabout_impl)
    in
    exit_ok ok
  in
  let impl =
    Arg.(
      value
      & opt
          (enum
             [ ("ct-strong", `Ct_strong); ("rank", `Rank); ("marabout", `Marabout);
               ("trb", `Trb) ])
          `Ct_strong
      & info [ "impl" ] ~docv:"IMPL"
          ~doc:"Underlying algorithm: ct-strong, rank, marabout, or trb.")
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Emulate a Perfect detector via the Section 4.3 / Section 5 reductions.")
    Term.(
      const run $ n_arg $ seed_arg $ Arg.(value & opt int 4000 & info [ "horizon" ])
      $ crashes_arg $ impl $ detector_arg)

(* ---------- fdsim qos ---------- *)

(* The streaming QoS observatory CLI.  Single runs go through Qos_stream
   over a Netsim that retains nothing (bounded memory at any n); --grid
   sweeps n x loss x churn x seed through the campaign engine, whose
   per-job streams make the --out file byte-identical at any --jobs. *)

(* --churn K synthesizes K crashes (pids 2..K+1, observer 1 always
   correct) evenly spaced over the first half of the horizon; explicit
   --crash wins when both are given. *)
let churn_crashes ~n ~horizon k =
  if k = 0 then []
  else begin
    if k < 0 || k > n - 1 then begin
      Format.eprintf "fdsim: --churn %d needs 0 <= churn <= n-1 (n = %d)@." k n;
      exit 2
    end;
    List.init k (fun i -> (2 + i, horizon * (i + 1) / (2 * (k + 1))))
  end

let apply_loss ~loss model =
  if loss = 0. then model
  else if loss < 0. || loss >= 1. then begin
    Format.eprintf "fdsim: --loss must be in [0, 1), got %g@." loss;
    exit 2
  end
  else Link.lossy ~drop:loss model

(* --partition START:HEAL:K names a cut by its raw triple; the island
   (the first K pids) is instantiated per run because it needs that
   run's n — which varies across a grid. *)
let parse_partition_triple s =
  let fail () =
    Format.eprintf
      "fdsim: --partition wants START:HEAL:K with 0 <= START < HEAL and K >= 1, got %S@."
      s;
    exit 2
  in
  match String.split_on_char ':' s with
  | [ a; b; c ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
    | Some starts, Some heals, Some k
      when starts >= 0 && heals > starts && k >= 1 ->
      (starts, heals, k)
    | _ -> fail ())
  | _ -> fail ()

let partitions_for ~n triples =
  List.map
    (fun (starts, heals, k) ->
      if k >= n then begin
        Format.eprintf
          "fdsim: --partition island of %d needs K < n (n = %d)@." k n;
        exit 2
      end;
      Partition.make ~starts ~heals ~island:(Partition.island_of_size ~n ~k))
    triples

let parse_topology s =
  match Topology.of_string s with
  | Ok t -> t
  | Error msg ->
    Format.eprintf "fdsim: %s@." msg;
    exit 2

let parse_impl s =
  match Detector_impl.impl_of_string s with
  | Ok i -> i
  | Error msg ->
    Format.eprintf "fdsim: %s@." msg;
    exit 2

let qos_summary_to_json ~spec ~partitions (s : Qos_stream.summary) =
  let open Obs.Json in
  Obj
    [ ("label", String s.Qos_stream.label); ("n", Int s.n);
      ("detector", Detector_impl.to_json spec);
      ("partitions", Partition.schedule_to_json partitions);
      ("pairs", Int s.pairs); ("detected", Int s.detected);
      ("undetected", Int s.undetected);
      ("false_episodes", Int s.false_episodes);
      ("partition_episodes", Int s.partition_episodes);
      ("detection_latency", Obs.Sketch.to_json s.detection);
      ("mistake_duration", Obs.Sketch.to_json s.mistake);
      ("mistake_recurrence", Obs.Sketch.to_json s.recurrence);
      ("query_accuracy", Float s.query_accuracy);
      ("messages_sent", Int s.messages_sent);
      ("messages_delivered", Int s.messages_delivered);
      ("messages_dropped", Int s.messages_dropped);
      ("messages_dropped_partition", Int s.dropped_partition);
      ("complete", Bool s.complete); ("accurate", Bool s.accurate);
      ("end_time", Int s.end_time) ]

(* One streaming-observed run: the estimator's tap is the only sink, the
   simulator retains no outputs. *)
let qos_run ~label ~n ~pattern ~model ~seed ~horizon ~spec ~partitions
    ~snapshot_every ~progress =
  let est =
    Qos_stream.create ~label ~snapshot_every ~progress ~partitions ~n
      ~pattern ()
  in
  let tap = Qos_stream.sink est in
  let (Detector_impl.Sim r) =
    Detector_impl.simulate ~retain_outputs:false ~sink:tap ~partitions ~n
      ~pattern ~model ~seed ~horizon spec
  in
  Qos_stream.finish est ~end_time:r.Netsim.end_time

let qos_single ~n ~seed ~horizon ~pattern ~model ~spec ~partitions ~json
    ~progress_f ~check =
  let progress =
    if progress_f then Obs.Trace.formatter Format.err_formatter
    else Obs.Trace.null
  in
  let snapshot_every = if progress_f then Stdlib.max 1 (horizon / 20) else 0 in
  let summary =
    qos_run ~label:"qos" ~n ~pattern ~model ~seed ~horizon ~spec ~partitions
      ~snapshot_every ~progress
  in
  if json then
    print_endline
      (Obs.Json.to_string (qos_summary_to_json ~spec ~partitions summary))
  else begin
    Format.printf "link: %a@.detector: %s@.partitions: %s@.pattern: %a@.@."
      Link.pp model
      (Detector_impl.describe spec)
      (Partition.describe partitions)
      Pattern.pp pattern;
    Format.printf "%a@." Qos_stream.pp_summary summary
  end;
  if not check then true
  else begin
    (* The oracle cross-check: rerun retained and compare against
       Qos.analyze.  Small-n only — retention is what streaming avoids. *)
    let (Detector_impl.Sim retained) =
      Detector_impl.simulate ~partitions ~n ~pattern ~model ~seed ~horizon
        spec
    in
    match Qos_stream.agrees summary (Qos.analyze ~partitions retained) with
    | Ok () ->
      Format.eprintf "cross-check: streaming estimator = Qos.analyze@.";
      true
    | Error msg ->
      Format.eprintf "fdsim: cross-check FAILED: %s@." msg;
      false
  end

let qos_grid ~seed ~horizon ~base ~impls ~topos ~partition_triples
    ~base_model ~ns ~losses ~churns ~seeds ~jobs ~out ~progress_f =
  let spec =
    Campaign.Spec.make ~name:"fdsim-qos"
      ~axes:
        [ ("n", List.map string_of_int ns);
          ("loss", List.map (Format.asprintf "%g") losses);
          ("churn", List.map string_of_int churns);
          ("impl", List.map Detector_impl.impl_name impls);
          ("topo", List.map Topology.name topos) ]
      ~seeds:(List.init seeds (fun i -> seed + i))
      ()
  in
  let job ~rng:_ ~metrics jb =
    let axis = Campaign.Spec.value jb in
    let jn = int_of_string (axis "n") in
    let loss = float_of_string (axis "loss") in
    let churn = int_of_string (axis "churn") in
    let dspec =
      { base with
        Detector_impl.impl = parse_impl (axis "impl");
        topology = parse_topology (axis "topo")
      }
    in
    let partitions = partitions_for ~n:jn partition_triples in
    let pattern = pattern_of ~n:jn (churn_crashes ~n:jn ~horizon churn) in
    let model = apply_loss ~loss base_model in
    let s =
      qos_run ~label:(Campaign.Spec.label jb) ~n:jn ~pattern ~model
        ~seed:jb.Campaign.Spec.seed ~horizon ~spec:dspec ~partitions
        ~snapshot_every:0 ~progress:Obs.Trace.null
    in
    Qos_stream.observe metrics s;
    (dspec, partitions, s)
  in
  let sink =
    if progress_f then Obs.Trace.formatter Format.err_formatter
    else Obs.Trace.null
  in
  let progress ~done_ ~total =
    if not progress_f then Printf.eprintf "qos campaign: %d/%d jobs\n%!" done_ total
  in
  let report =
    Campaign.Engine.run_spec ~workers:jobs ~progress ~sink ~seed spec job
  in
  Format.printf "%-44s %4s %4s %6s %8s %8s %8s %6s %10s@." "scope" "det"
    "miss" "false" "p50" "p95" "p99" "P_A" "msgs";
  List.iter
    (fun o ->
      let _, _, s = o.Campaign.Engine.value in
      let p q =
        if Obs.Sketch.is_empty s.Qos_stream.detection then Float.nan
        else Obs.Sketch.percentile s.Qos_stream.detection q
      in
      Format.printf "%-44s %4d %4d %6d %8.1f %8.1f %8.1f %6.3f %10d@."
        o.Campaign.Engine.label s.Qos_stream.detected s.Qos_stream.undetected
        s.Qos_stream.false_episodes (p 0.5) (p 0.95) (p 0.99)
        s.Qos_stream.query_accuracy s.Qos_stream.messages_sent)
    report.Campaign.Engine.outcomes;
  (* The --out document deliberately excludes timing and worker fields:
     two runs of the same grid at different --jobs are byte-identical. *)
  (match out with
  | None -> ()
  | Some dest ->
    let rows =
      List.map
        (fun o ->
          let dspec, partitions, s = o.Campaign.Engine.value in
          Obs.Json.Obj
            [ ("job", Obs.Json.Int o.Campaign.Engine.job);
              ("label", Obs.Json.String o.Campaign.Engine.label);
              ("result", qos_summary_to_json ~spec:dspec ~partitions s) ])
        report.Campaign.Engine.outcomes
    in
    let doc =
      Obs.Json.Obj
        [ ("schema_version", Obs.Json.Int Obs.Trace.schema_version);
          ("campaign", Campaign.Spec.to_json spec);
          ("horizon", Obs.Json.Int horizon);
          ("detector",
           Obs.Json.Obj
             [ ("period", Obs.Json.Int base.Detector_impl.period);
               ("timeout", Obs.Json.Int base.Detector_impl.timeout);
               ("adaptive", Obs.Json.Bool (base.Detector_impl.backoff <> None));
               ("retries", Obs.Json.Int base.Detector_impl.retries) ]);
          ("partitions",
           Obs.Json.List
             (List.map
                (fun (starts, heals, k) ->
                  Obs.Json.Obj
                    [ ("starts", Obs.Json.Int starts);
                      ("heals", Obs.Json.Int heals);
                      ("island_k", Obs.Json.Int k) ])
                partition_triples));
          ("rows", Obs.Json.List rows) ]
    in
    let line = Obs.Json.to_string doc in
    if dest = "-" then print_endline line
    else begin
      let oc = open_out dest in
      output_string oc line;
      output_char oc '\n';
      close_out oc
    end);
  Format.printf "qos campaign: %d jobs, workers=%d, %.2fs@."
    report.Campaign.Engine.total report.Campaign.Engine.workers
    report.Campaign.Engine.wall_s;
  true

let qos_cmd =
  let run n seed horizon crashes model loss churn impl_s topology_s retries
      partition_s adaptive period timeout json progress_f check grid grid_ns
      grid_losses grid_churns grid_impls grid_topos seeds jobs out =
    let base =
      {
        Detector_impl.impl = parse_impl impl_s;
        topology = parse_topology topology_s;
        period;
        timeout;
        backoff = (if adaptive then Some 25 else None);
        retries;
      }
    in
    let partition_triples = List.map parse_partition_triple partition_s in
    let base_model = make_model model in
    let ok =
      if grid then
        let ns = if grid_ns = [] then [ 5; 10; 30 ] else grid_ns in
        let losses = if grid_losses = [] then [ 0.; 0.05; 0.2 ] else grid_losses in
        let churns = if grid_churns = [] then [ 0; 2 ] else grid_churns in
        let impls =
          if grid_impls = [] then [ base.Detector_impl.impl ]
          else List.map parse_impl grid_impls
        in
        let topos =
          if grid_topos = [] then [ base.Detector_impl.topology ]
          else List.map parse_topology grid_topos
        in
        qos_grid ~seed ~horizon ~base ~impls ~topos ~partition_triples
          ~base_model ~ns ~losses ~churns ~seeds ~jobs ~out ~progress_f
      else begin
        let crashes =
          if crashes = [] then churn_crashes ~n ~horizon churn else crashes
        in
        let pattern = pattern_of ~n crashes in
        let model = apply_loss ~loss base_model in
        let partitions = partitions_for ~n partition_triples in
        qos_single ~n ~seed ~horizon ~pattern ~model ~spec:base ~partitions
          ~json ~progress_f ~check
      end
    in
    exit_ok ok
  in
  let impl_arg =
    Arg.(
      value & opt string "heartbeat"
      & info [ "impl" ] ~docv:"IMPL"
          ~doc:"Detector implementation: heartbeat (push) or pingack (pull).")
  in
  let topology_arg =
    Arg.(
      value & opt string "all"
      & info [ "topology" ] ~docv:"TOPO"
          ~doc:
            "Monitoring assignment: all (all-to-all), ring[:K] (each node \
             monitors its K successors), or hier (O(log n) hypercube \
             testing graph with suspicion dissemination).")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"R"
          ~doc:"Ping-ack re-solicitations per round (pingack only).")
  in
  let partition_arg =
    Arg.(
      value & opt_all string []
      & info [ "partition" ] ~docv:"START:HEAL:K"
          ~doc:
            "Partition the first $(i,K) processes away from the rest over \
             [START, HEAL) network time; repeatable.  Cross-cut messages \
             are dropped, and the QoS report classifies the suspicions and \
             drops the cut causes.")
  in
  let adaptive = Arg.(value & flag & info [ "adaptive" ] ~doc:"Adaptive per-link timeouts.") in
  let period =
    Arg.(value & opt int 20 & info [ "period" ] ~docv:"T" ~doc:"Heartbeat period.")
  in
  let timeout =
    Arg.(value & opt int 31 & info [ "timeout" ] ~docv:"T" ~doc:"Suspicion timeout.")
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"P"
          ~doc:"Wrap the link in a lossy layer dropping each message with \
                probability $(docv) (0 <= P < 1).")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"K"
          ~doc:"Crash $(docv) processes at evenly spaced times over the \
                first half of the horizon (ignored when --crash is given).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as JSON.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Rerun the scope with retained outputs and cross-check the \
             streaming estimator against the post-hoc Qos.analyze oracle \
             (small n only; exits non-zero on disagreement).")
  in
  let grid =
    Arg.(
      value & flag
      & info [ "grid" ]
          ~doc:
            "Campaign mode: sweep n x loss x churn x seed on the campaign \
             engine instead of one run.")
  in
  let grid_ns =
    Arg.(
      value & opt_all int []
      & info [ "grid-n" ] ~docv:"N"
          ~doc:"Grid axis value for n (repeatable; default: 5, 10, 30).")
  in
  let grid_losses =
    Arg.(
      value & opt_all float []
      & info [ "grid-loss" ] ~docv:"P"
          ~doc:"Grid axis value for loss (repeatable; default: 0, 0.05, 0.2).")
  in
  let grid_churns =
    Arg.(
      value & opt_all int []
      & info [ "grid-churn" ] ~docv:"K"
          ~doc:"Grid axis value for churn (repeatable; default: 0, 2).")
  in
  let grid_impls =
    Arg.(
      value & opt_all string []
      & info [ "grid-impl" ] ~docv:"IMPL"
          ~doc:"Grid axis value for the detector impl (repeatable; default: --impl).")
  in
  let grid_topos =
    Arg.(
      value & opt_all string []
      & info [ "grid-topology" ] ~docv:"TOPO"
          ~doc:"Grid axis value for the topology (repeatable; default: --topology).")
  in
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~docv:"K"
          ~doc:"Replicate seeds per grid point: seed, seed+1, ..., seed+K-1.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the grid results as a single JSON document to $(docv) \
             ('-' writes to stdout).  Timing-free and sorted by job index, \
             so the bytes are identical at any --jobs.")
  in
  Cmd.v
    (Cmd.info "qos"
       ~doc:
         "Measure failure-detector quality of service across the detector \
          zoo (heartbeat/pingack x topology x adaptivity x partitions) \
          with the streaming observatory (bounded memory at any n).")
    Term.(
      const run $ n_arg $ seed_arg
      $ Arg.(value & opt int 4000 & info [ "horizon" ])
      $ crashes_arg $ model_arg $ loss $ churn $ impl_arg $ topology_arg
      $ retries_arg $ partition_arg $ adaptive $ period $ timeout
      $ json $ progress_arg $ check $ grid $ grid_ns $ grid_losses
      $ grid_churns $ grid_impls $ grid_topos $ seeds $ jobs_arg $ out)

(* ---------- fdsim gms ---------- *)

let gms_cmd =
  let run n seed horizon crashes model period timeout =
    let pattern = pattern_of ~n crashes in
    let model = make_model model in
    let config = { Gms.period; timeout } in
    let r = Netsim.run ~n ~pattern ~model ~seed ~horizon (Gms.node config) in
    Format.printf "link: %a@.pattern: %a@.@." Link.pp model Pattern.pp pattern;
    List.iter
      (fun (t, p, ev) -> Format.printf "  t=%-5d %a %a@." t Pid.pp p Gms.pp_event ev)
      r.Netsim.outputs;
    let ok =
      print_verdicts "group membership emulates P" (Gms.check_emulates_p r)
      && Classes.holds (Gms.final_views_agree r)
    in
    Format.printf "  %-24s %a@." "final views agree"
      Classes.pp_result (Gms.final_views_agree r);
    exit_ok ok
  in
  let period = Arg.(value & opt int 20 & info [ "period" ] ~doc:"Heartbeat period.") in
  let timeout = Arg.(value & opt int 55 & info [ "timeout" ] ~doc:"Suspicion timeout.") in
  Cmd.v
    (Cmd.info "gms" ~doc:"Run the group membership service (the practical P).")
    Term.(
      const run $ n_arg $ seed_arg
      $ Arg.(value & opt int 4000 & info [ "horizon" ])
      $ crashes_arg $ model_arg $ period $ timeout)

(* ---------- fdsim paxos ---------- *)

let paxos_cmd =
  let run n seed horizon crashes diagram =
    let pattern = pattern_of ~n crashes in
    let r =
      Runner.run ~pattern ~detector:Omega.canonical
        ~scheduler:(make_scheduler ~seed `Fair)
        ~horizon:(Time.of_int horizon)
        ~until:(Runner.stop_when_all_correct_output pattern)
        (Paxos.automaton ~proposals)
    in
    print_run_header ~algo:r.Runner.algorithm ~detector:"Omega" ~pattern;
    List.iter
      (fun (t, p, v) -> Format.printf "  %a %a decided %d@." Time.pp t Pid.pp p v)
      r.Runner.outputs;
    if diagram then
      Format.printf "@.%s@." (Spacetime.render ~pp_output:Format.pp_print_int r);
    let ok =
      print_verdicts "consensus specification"
        (Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r)
    in
    exit_ok ok
  in
  Cmd.v
    (Cmd.info "paxos" ~doc:"Run Omega-based majority consensus (Paxos style).")
    Term.(const run $ n_arg $ seed_arg $ horizon_arg $ crashes_arg $ diagram_arg)

(* ---------- fdsim vsync ---------- *)

let vsync_cmd =
  let run n seed horizon crashes model period timeout =
    let pattern = pattern_of ~n crashes in
    let model = make_model model in
    let config = { Vsync.period; timeout } in
    let payloads p = List.init 3 (fun k -> (Pid.to_int p * 100) + k) in
    let r =
      Netsim.run ~n ~pattern ~model ~seed ~horizon
        (Vsync.node config ~to_send:payloads)
    in
    Format.printf "link: %a@.pattern: %a@.@." Link.pp model Pattern.pp pattern;
    List.iter
      (fun (t, p, ev) ->
        Format.printf "  t=%-5d %a %a@." t Pid.pp p
          (Vsync.pp_event Format.pp_print_int) ev)
      r.Netsim.outputs;
    let ok = print_verdicts "virtual synchrony" (Vsync.check r) in
    exit_ok ok
  in
  let period = Arg.(value & opt int 20 & info [ "period" ] ~doc:"Heartbeat period.") in
  let timeout = Arg.(value & opt int 55 & info [ "timeout" ] ~doc:"Suspicion timeout.") in
  Cmd.v
    (Cmd.info "vsync" ~doc:"Run view-synchronous multicast (virtual synchrony).")
    Term.(
      const run $ n_arg $ seed_arg
      $ Arg.(value & opt int 6000 & info [ "horizon" ])
      $ crashes_arg $ model_arg $ period $ timeout)

(* ---------- fdsim nbac ---------- *)

let nbac_cmd =
  let run n seed horizon crashes no_voters fd =
    let pattern = pattern_of ~n crashes in
    let detector = make_detector ~seed fd in
    let votes p = if List.mem (Pid.to_int p) no_voters then Nbac.No else Nbac.Yes in
    let r =
      Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
        ~horizon:(Time.of_int horizon)
        ~until:(Runner.stop_when_all_correct_output pattern)
        (Nbac.automaton ~votes)
    in
    print_run_header ~algo:"non-blocking-atomic-commit"
      ~detector:(Detector.name detector) ~pattern;
    List.iter
      (fun p ->
        Format.printf "  %a votes %a@." Pid.pp p Nbac.pp_vote (votes p))
      (Pid.all ~n);
    List.iter
      (fun (t, p, o) ->
        Format.printf "  %a %a decided %a@." Time.pp t Pid.pp p Nbac.pp_outcome o)
      r.Runner.outputs;
    let ok = print_verdicts "NBAC specification" (Nbac.check ~votes r) in
    exit_ok ok
  in
  let no_voters =
    Arg.(
      value & opt_all int []
      & info [ "no" ] ~docv:"PID" ~doc:"Process voting No (repeatable).")
  in
  Cmd.v
    (Cmd.info "nbac" ~doc:"Run non-blocking atomic commitment.")
    Term.(
      const run $ n_arg $ seed_arg $ horizon_arg $ crashes_arg $ no_voters
      $ detector_arg)

(* ---------- fdsim explore ---------- *)

(* The symmetry layer needs the algorithm's renamer alongside the automaton
   itself — only pid-uniform algorithms have one. *)
type sym_consumer = {
  consume_sym :
    's 'm.
    ('s, 'm, Detector.suspicions, int) Model.t ->
    ('s, 'm, Detector.suspicions, int) Explore.symmetry_spec option ->
    int;
}

let with_algo_sym ~n algo k =
  let ct_spec =
    {
      Explore.renamer = Ct_strong.renamer;
      value_map = (fun pi -> Symmetry.value_map_of_proposals ~n ~proposals pi);
      d_rename = Symmetry.rename_set;
    }
  in
  match algo with
  | `Ct_strong -> k.consume_sym (Ct_strong.automaton ~proposals) (Some ct_spec)
  | `Ct_ev_strong -> k.consume_sym (Ct_ev_strong.automaton ~proposals) None
  | `Marabout -> k.consume_sym (Marabout_consensus.automaton ~proposals) None
  | `Rank -> k.consume_sym (Rank_consensus.automaton ~proposals) None

let explore_cmd =
  let run n seed crashes algo fd max_steps max_nodes uniform canon por
      por_lambda symmetry explain cross record progress =
    if max_steps < 0 then begin
      Format.eprintf "fdsim: --max-steps must be >= 0, got %d@." max_steps;
      exit 2
    end;
    let pattern = pattern_of ~n crashes in
    let detector = make_detector ~seed fd in
    let check = consensus_explore_check ~n ~uniform pattern in
    let d_equal = Pid.Set.equal in
    let sink =
      if progress then Obs.Trace.formatter Format.err_formatter
      else Obs.Trace.null
    in
    let print_report report =
      Format.printf "%a@." Explore.pp_report report;
      List.iter
        (fun v ->
          Format.printf "@.violation at step %d: %s@.schedule:@." v.Explore.at_step
            v.Explore.reason;
          List.iter
            (fun (p, recv) ->
              Format.printf "  %a %s@." Pid.pp p
                (match recv with
                | Some src -> Format.asprintf "receives from %a" Pid.pp src
                | None -> "lambda"))
            v.Explore.trail;
          List.iter
            (fun (p, v) -> Format.printf "  output: %a decided %d@." Pid.pp p v)
            v.Explore.outputs)
        report.Explore.violations
    in
    let finish : type s m.
        (s, m, Detector.suspicions, int) Model.t ->
        (s, m, Detector.suspicions, int) Explore.symmetry_spec option ->
        int =
     fun automaton spec_opt ->
      let symmetry_spec =
        if not symmetry then None
        else
          match spec_opt with
          | Some _ as s -> s
          | None ->
            Format.eprintf
              "fdsim: algo %s is not pid-symmetric; --symmetry has no effect@."
              (scope_name algo algo_names);
            None
      in
      Format.printf "pattern:  %a@.detector: %s@." Pattern.pp pattern
        (Detector.name detector);
      (* --cross-check with no reduction flags means "the full stack". *)
      let cc_canon, cc_por, cc_por_lambda =
        if cross && not (canon || por || por_lambda) then (true, true, true)
        else (canon, por, por_lambda)
      in
      if explain then begin
        let canon, por, por_lambda =
          if cross then (cc_canon, cc_por, cc_por_lambda)
          else (canon, por, por_lambda)
        in
        List.iter print_endline
          (Explore.describe ~max_steps ~canon ~por ~por_lambda
             ?symmetry:symmetry_spec ~d_equal ~pattern ~detector ());
        exit_ok true
      end
      else if cross then begin
        let c =
          Explore.cross_check ~max_steps ~max_nodes ~canon:cc_canon ~por:cc_por
            ~por_lambda:cc_por_lambda ?symmetry:symmetry_spec ~d_equal
            ~pattern ~detector ~check automaton
        in
        Format.printf "unreduced: %a@." Explore.pp_report c.Explore.unreduced;
        Format.printf "reduced:   %a@." Explore.pp_report c.Explore.reduced;
        Format.printf
          "cross-check: %s (%d decision state(s), %.1fx fewer nodes)@."
          (if c.Explore.identical then "identical" else "MISMATCH")
          (List.length c.Explore.reduced.Explore.decision_states)
          c.Explore.node_factor;
        exit_ok c.Explore.identical
      end
      else begin
        let report =
          Explore.run ~max_steps ~max_nodes ~canon ~por ~por_lambda
            ?symmetry:symmetry_spec ~capture:(record <> None) ~sink ~d_equal
            ~pattern ~detector ~check automaton
        in
        print_report report;
        (match record with
        | None -> ()
        | Some file -> (
          match report.Explore.violations with
          | [] ->
            Format.eprintf
              "fdsim: no violation found; nothing recorded to %s@." file
          | v :: _ ->
            (* Re-execute the captured schedule: the replayer derives the
               detector queries and the canonical outcome the artifact must
               carry, and doubles as a sanity check against the explorer. *)
            let e =
              Replay.execute ~pp_output:string_of_int ~pp_seen:pp_seen_set
                ~pattern ~detector ~check ~schedule:v.Explore.schedule
                automaton
            in
            (match e.Replay.violation with
            | Some (at, reason)
              when at = v.Explore.at_step && String.equal reason v.Explore.reason
              -> ()
            | _ ->
              Format.eprintf
                "fdsim: warning: re-execution disagrees with the explorer on \
                 the violation@.");
            let scope =
              make_scope ~cmd:"explore" ~n ~seed ~crashes ~algo ~fd
                [ ("uniform", Obs.Json.Bool uniform);
                  ("max_steps", Obs.Json.Int max_steps) ]
            in
            Obs.Recorder.save file (Replay.to_artifact ~scope e);
            Format.printf "recorded %d-step violation to %s@."
              (List.length e.Replay.steps) file));
        exit_ok (report.Explore.violations = [])
      end
    in
    with_algo_sym ~n algo { consume_sym = finish }
  in
  let max_steps =
    Arg.(value & opt int 9 & info [ "max-steps" ] ~docv:"K" ~doc:"Depth bound.")
  in
  let max_nodes =
    Arg.(value & opt int 2_000_000 & info [ "max-nodes" ] ~docv:"K" ~doc:"Node budget.")
  in
  let uniform =
    Arg.(
      value & opt bool true
      & info [ "uniform" ] ~docv:"BOOL"
          ~doc:"Check uniform agreement (true) or correct-restricted (false).")
  in
  let canon =
    Arg.(
      value & flag
      & info [ "canon" ]
          ~doc:"Canonicalize states and prune duplicates (visited set).")
  in
  let por =
    Arg.(
      value & flag
      & info [ "por" ]
          ~doc:"Sleep-set partial-order reduction over commuting deliveries.")
  in
  let por_lambda =
    Arg.(
      value & flag
      & info [ "por-lambda" ]
          ~doc:
            "Extend the sleep-set reduction to commuting internal lambda \
             steps of distinct processes.")
  in
  let symmetry =
    Arg.(
      value & flag
      & info [ "symmetry" ]
          ~doc:
            "Quotient states by crash-pattern-respecting, \
             detector-equivariant pid renamings (pid-symmetric algorithms \
             only; a no-op with a warning otherwise).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the active reductions resolved for this scope (group \
             order, quiescence point) and exit without exploring.")
  in
  let cross =
    Arg.(
      value & flag
      & info [ "cross-check" ]
          ~doc:
            "Run both reduced and naive explorations and verify they reach \
             identical decision-state sets.  Reduces with the requested \
             subset of --canon/--por/--por-lambda/--symmetry, or the full \
             stack when none is given.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively explore every schedule up to a bound (small n!).")
    Term.(
      const run $ Arg.(value & opt int 3 & info [ "n" ]) $ seed_arg $ crashes_arg
      $ algo_arg $ detector_arg $ max_steps $ max_nodes $ uniform $ canon $ por
      $ por_lambda $ symmetry $ explain $ cross $ record_arg $ progress_arg)

(* ---------- fdsim replay / shrink / render ---------- *)

let artifact_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Flight-recorder artifact (JSONL).")

let replay_cmd =
  let run file =
    let artifact = load_artifact file in
    let scope = scope_of_artifact artifact in
    match artifact.Obs.Recorder.kind with
    | Obs.Recorder.Explore -> (
      match Replay.schedule_of_artifact artifact with
      | Error msg ->
        Format.eprintf "fdsim: %s@." msg;
        2
      | Ok schedule ->
        let check =
          consensus_explore_check ~n:scope.sc_n ~uniform:scope.sc_uniform
            scope.sc_pattern
        in
        scope.sc_algo
          {
            consume =
              (fun automaton ->
                let e =
                  Replay.execute ~pp_output:string_of_int ~pp_seen:pp_seen_set
                    ~pattern:scope.sc_pattern ~detector:scope.sc_detector
                    ~check ~schedule automaton
                in
                Format.printf "replayed %d step(s), %d dropped%s@."
                  (List.length e.Replay.steps)
                  e.Replay.dropped
                  (match e.Replay.violation with
                  | Some (at, reason) ->
                    Format.asprintf "; violation at step %d: %s" at reason
                  | None -> "; no violation");
                match Replay.check_against artifact e with
                | [] ->
                  Format.printf
                    "replay: outcome byte-identical to the recording@.";
                  0
                | mismatches ->
                  List.iter
                    (fun m -> Format.eprintf "replay mismatch: %s@." m)
                    mismatches;
                  1);
          })
    | Obs.Recorder.Run ->
      scope.sc_algo
        {
          consume =
            (fun automaton ->
              let detector, queries =
                Detector.taped ~pp:pp_seen_set scope.sc_detector
              in
              let r =
                Runner.run ~pattern:scope.sc_pattern ~detector
                  ~scheduler:(Scheduler.replay (Replay.replay_entries artifact))
                  ~horizon:(Time.of_int scope.sc_horizon)
                  ~until:(Runner.stop_when_all_correct_output scope.sc_pattern)
                  automaton
              in
              let again =
                Replay.runner_artifact ~scope:artifact.Obs.Recorder.scope
                  ~pp_output:string_of_int ~queries:(queries ()) r
              in
              let recorded = Obs.Recorder.to_lines artifact in
              let replayed = Obs.Recorder.to_lines again in
              if List.equal String.equal recorded replayed then begin
                Format.printf
                  "replay: run reproduced byte-identically (%d steps, %d \
                   decisions)@."
                  r.Runner.steps
                  (List.length r.Runner.outputs);
                0
              end
              else begin
                Format.eprintf
                  "replay: MISMATCH (recording %d lines, replay %d lines)@."
                  (List.length recorded) (List.length replayed);
                let shown = ref 0 in
                List.iteri
                  (fun i a ->
                    match List.nth_opt replayed i with
                    | Some b when (not (String.equal a b)) && !shown < 5 ->
                      incr shown;
                      Format.eprintf
                        "  line %d:@.    recorded: %s@.    replayed: %s@."
                        (i + 1) a b
                    | _ -> ())
                  recorded;
                1
              end);
        }
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a flight-recorder artifact deterministically and verify \
          the outcome byte-for-byte against the recording.")
    Term.(const run $ artifact_file_arg)

let shrink_cmd =
  let run file out =
    let artifact = load_artifact file in
    (match artifact.Obs.Recorder.kind with
    | Obs.Recorder.Run ->
      Format.eprintf
        "fdsim: %s is a run recording; shrink minimizes explore violations@."
        file;
      exit 2
    | Obs.Recorder.Explore -> ());
    let scope = scope_of_artifact artifact in
    match Replay.schedule_of_artifact artifact with
    | Error msg ->
      Format.eprintf "fdsim: %s@." msg;
      2
    | Ok schedule ->
      let check =
        consensus_explore_check ~n:scope.sc_n ~uniform:scope.sc_uniform
          scope.sc_pattern
      in
      scope.sc_algo
        {
          consume =
            (fun automaton ->
              match
                Replay.shrink ~pp_output:string_of_int ~pp_seen:pp_seen_set
                  ~pattern:scope.sc_pattern ~detector:scope.sc_detector ~check
                  ~schedule automaton
              with
              | exception Invalid_argument msg ->
                Format.eprintf "fdsim: %s@." msg;
                2
              | s ->
                let out =
                  match out with
                  | Some f -> f
                  | None ->
                    if Filename.check_suffix file ".jsonl" then
                      Filename.chop_suffix file ".jsonl" ^ ".min.jsonl"
                    else file ^ ".min"
                in
                Obs.Recorder.save out
                  (Replay.to_artifact ~scope:artifact.Obs.Recorder.scope
                     s.Replay.execution);
                Format.printf
                  "shrink: %d -> %d step(s) in %d round(s), %d candidate \
                   schedule(s)@."
                  (List.length schedule)
                  (List.length s.Replay.schedule)
                  s.Replay.rounds s.Replay.candidates;
                (match s.Replay.execution.Replay.violation with
                | Some (at, reason) ->
                  Format.printf "violation at step %d: %s@." at reason
                | None -> ());
                Format.printf "wrote %s@." out;
                0);
        }
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Where to write the minimized artifact (default: the input with \
             .jsonl replaced by .min.jsonl).")
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Delta-debug an explore artifact down to a 1-minimal schedule that \
          still violates, and write it as a new artifact.")
    Term.(const run $ artifact_file_arg $ out)

let render_cmd =
  let run file format_ =
    let artifact = load_artifact file in
    let scope = scope_of_artifact artifact in
    let crashed_at p =
      Option.map Time.to_int (Pattern.crash_time scope.sc_pattern (Pid.of_int p))
    in
    let render title steps =
      match format_ with
      | `Ascii ->
        print_string
          (Spacetime.Timeline.render_ascii ~title ~n:scope.sc_n ~crashed_at
             steps)
      | `Dot ->
        print_string
          (Spacetime.Timeline.render_dot ~title ~n:scope.sc_n ~crashed_at steps)
    in
    match artifact.Obs.Recorder.kind with
    | Obs.Recorder.Explore -> (
      match Replay.schedule_of_artifact artifact with
      | Error msg ->
        Format.eprintf "fdsim: %s@." msg;
        2
      | Ok schedule ->
        let check =
          consensus_explore_check ~n:scope.sc_n ~uniform:scope.sc_uniform
            scope.sc_pattern
        in
        scope.sc_algo
          {
            consume =
              (fun automaton ->
                let e =
                  Replay.execute ~pp_output:string_of_int ~pp_seen:pp_seen_set
                    ~pattern:scope.sc_pattern ~detector:scope.sc_detector
                    ~check ~schedule automaton
                in
                let title =
                  Filename.basename file
                  ^
                  match e.Replay.violation with
                  | Some (at, reason) ->
                    Format.asprintf " (violation at step %d: %s)" at reason
                  | None -> ""
                in
                render title (Spacetime.Timeline.of_execution e);
                0);
          })
    | Obs.Recorder.Run ->
      scope.sc_algo
        {
          consume =
            (fun automaton ->
              let r =
                Runner.run ~pattern:scope.sc_pattern
                  ~detector:scope.sc_detector
                  ~scheduler:(Scheduler.replay (Replay.replay_entries artifact))
                  ~horizon:(Time.of_int scope.sc_horizon)
                  ~until:(Runner.stop_when_all_correct_output scope.sc_pattern)
                  automaton
              in
              render (Filename.basename file)
                (Spacetime.Timeline.of_result ~pp_output:string_of_int r);
              0);
        }
  in
  let format_ =
    Arg.(
      value
      & opt (enum [ ("ascii", `Ascii); ("dot", `Dot) ]) `Ascii
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Diagram back-end: ascii (terminal) or dot (graphviz).")
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:
         "Draw the spacetime diagram of a flight-recorder artifact, as ASCII \
          or graphviz DOT.")
    Term.(const run $ artifact_file_arg $ format_)

(* ---------- fdsim metrics ---------- *)

let metrics_cmd =
  let run n seed horizon crashes model fd json =
    let registry = Obs.Metrics.create () in
    (* Phase 1: a heartbeat detector under the message-passing simulator.
       The QoS analysis feeds the detection_latency / mistake_duration
       histograms, so we default to one crash when none is requested. *)
    let crashes = if crashes = [] then [ (2, horizon / 4) ] else crashes in
    let pattern = pattern_of ~n crashes in
    let link = make_model model in
    let style = Heartbeat.Fixed { period = 20; timeout = 31 } in
    let r_net =
      Netsim.run ~n ~pattern ~model:link ~seed ~horizon ~metrics:registry
        (Heartbeat.node ~metrics:registry style)
    in
    Qos.observe registry (Qos.analyze r_net);
    (* Phase 1b: the detector zoo's realistic corner — adaptive ping-ack
       over the hierarchical topology with a healing partition — so the
       zoo's counter family (monitor_degree, messages_dropped_partition,
       partition_suspicion_episodes, qos_messages_dropped_partition)
       appears in the dump. *)
    let zoo_spec =
      {
        Detector_impl.impl = `Pingack;
        topology = Topology.hierarchical;
        period = 20;
        timeout = 31;
        backoff = Some 25;
        retries = 1;
      }
    in
    let zoo_partitions =
      [ Partition.make ~starts:(horizon / 8) ~heals:(horizon / 4)
          ~island:(Partition.island_of_size ~n ~k:1) ]
    in
    let zoo_est =
      Qos_stream.create ~label:"zoo" ~partitions:zoo_partitions ~n ~pattern ()
    in
    let zoo_tap = Qos_stream.sink zoo_est in
    let (Detector_impl.Sim zr) =
      Detector_impl.simulate ~retain_outputs:false ~sink:zoo_tap
        ~metrics:registry ~partitions:zoo_partitions ~n ~pattern ~model:link
        ~seed ~horizon zoo_spec
    in
    Qos_stream.observe registry (Qos_stream.finish zoo_est ~end_time:zr.Netsim.end_time);
    (* Phase 2: consensus over the abstract-step simulator, with the
       detector wrapped so every module query is counted and suspicion
       flips are tallied. *)
    let detector = make_detector ~seed fd in
    let last_seen : (Pid.t, Pid.Set.t) Hashtbl.t = Hashtbl.create 16 in
    let observed =
      Detector.observed detector ~on_query:(fun _f p _t seen ->
          Obs.Metrics.incr registry "detector_queries";
          let prev =
            Option.value (Hashtbl.find_opt last_seen p) ~default:Pid.Set.empty
          in
          let flips =
            Pid.Set.cardinal (Pid.Set.diff seen prev)
            + Pid.Set.cardinal (Pid.Set.diff prev seen)
          in
          if flips > 0 then
            Obs.Metrics.incr ~by:flips registry "suspicion_transitions";
          Hashtbl.replace last_seen p seen)
    in
    let (_ : (_, _) Runner.result) =
      Runner.run ~pattern ~detector:observed
        ~scheduler:(make_scheduler ~seed `Fair)
        ~horizon:(Time.of_int horizon) ~metrics:registry
        ~until:(Runner.stop_when_all_correct_output pattern)
        (Ct_strong.automaton ~proposals)
    in
    (* Phase 3: a small exhaustive exploration with the whole reduction
       stack, so the explorer's counter families (nodes, dedup, POR prunes,
       orbit collapses) all appear in the dump. *)
    let xp = pattern_of ~n:3 [ (1, 2) ] in
    let (_ : int Explore.report) =
      Explore.run ~max_steps:7 ~canon:true ~por:true ~por_lambda:true
        ~symmetry:
          {
            Explore.renamer = Ct_strong.renamer;
            value_map =
              (fun pi -> Symmetry.value_map_of_proposals ~n:3 ~proposals pi);
            d_rename = Symmetry.rename_set;
          }
        ~d_equal:Pid.Set.equal ~metrics:registry ~pattern:xp
        ~detector:Perfect.canonical
        ~check:(Explore.agreement_check ~equal:Int.equal)
        (Ct_strong.automaton ~proposals)
    in
    (* Phase 4: a micro-campaign through the persistent domain pool, with
       more worker slots than the pool will ever spawn domains on small
       machines — the orphan ranges are drained by stealing, so the pool
       counter family (campaign_steals, pool_domains, shard_target_ms)
       lands in the dump with the steal path exercised. *)
    let pool_report =
      Campaign.Engine.run ~workers:4 ~name:"metrics-pool-probe" ~seed
        ~total:32 ~label:string_of_int (fun ~rng:_ ~metrics:_ job -> job)
    in
    Obs.Metrics.merge ~into:registry pool_report.Campaign.Engine.metrics;
    Obs.Metrics.observe_gc registry;
    if json then print_endline (Obs.Json.to_string (Obs.Metrics.to_json registry))
    else begin
      Format.printf "scenario: heartbeat %a + ct-strong/%s@.link:     %a@.pattern:  %a@.@."
        Heartbeat.pp_style style (Detector.name detector) Link.pp link
        Pattern.pp pattern;
      Format.printf "%a@." Obs.Metrics.pp registry
    end;
    exit_ok true
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the registry as JSON.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a representative scenario (heartbeat QoS, then consensus) and \
          dump the populated metrics registry.")
    Term.(
      const run $ n_arg $ seed_arg
      $ Arg.(value & opt int 4000 & info [ "horizon" ])
      $ crashes_arg $ model_arg $ detector_arg $ json)

(* ---------- fdsim campaign ---------- *)

type campaign_result = {
  cr_pass : bool;
  cr_steps : int;
  cr_sent : int;
  cr_decisions : int;
  cr_violations : int;
}

let campaign_codec =
  let open Obs.Json in
  {
    Campaign.Engine.encode =
      (fun r ->
        Obj
          [ ("pass", Bool r.cr_pass); ("steps", Int r.cr_steps);
            ("sent", Int r.cr_sent); ("decisions", Int r.cr_decisions);
            ("violations", Int r.cr_violations) ]);
    decode =
      (fun j ->
        match
          ( Option.bind (member "pass" j) to_bool_opt,
            Option.bind (member "steps" j) to_int_opt,
            Option.bind (member "sent" j) to_int_opt,
            Option.bind (member "decisions" j) to_int_opt,
            Option.bind (member "violations" j) to_int_opt )
        with
        | Some cr_pass, Some cr_steps, Some cr_sent, Some cr_decisions,
          Some cr_violations ->
          Ok { cr_pass; cr_steps; cr_sent; cr_decisions; cr_violations }
        | _ -> Error "not a campaign result");
  }

(* One campaign job: generate the pattern from (family, replicate seed) —
   so every detector and scheduler sees the same pattern at the same seed,
   making grid points paired — then run ct-strong consensus and check the
   uniform spec plus Lemma 4.1 totality. *)
let campaign_job ~n ~horizon job =
  let axis = Campaign.Spec.value job in
  let seed = job.Campaign.Spec.seed in
  let family =
    List.find
      (fun f -> f.Pattern.Family.name = axis "family")
      Pattern.Family.all
  in
  let detector =
    make_detector ~seed (List.assoc (axis "fd") detector_names)
  in
  let scheduler =
    make_scheduler ~seed (if axis "sched" = "fair" then `Fair else `Random)
  in
  let crash_horizon = Time.of_int (Stdlib.min 300 (horizon / 4)) in
  let pattern_rng = Rng.derive ~seed ~salts:[ 0x7A ] in
  let pattern =
    Pattern.Family.generate family ~n ~horizon:crash_horizon pattern_rng
  in
  let r =
    Runner.run ~pattern ~detector ~scheduler ~horizon:(Time.of_int horizon)
      ~until:(Runner.stop_when_all_correct_output pattern)
      (Ct_strong.automaton ~proposals)
  in
  let consensus_ok =
    Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
    |> List.for_all (fun (_, res) -> Classes.holds res)
  in
  let violations = List.length (Totality.check r) in
  {
    cr_pass = consensus_ok && violations = 0;
    cr_steps = r.Runner.steps;
    cr_sent = r.Runner.sent;
    cr_decisions = List.length r.Runner.outputs;
    cr_violations = violations;
  }

let campaign_cmd =
  let run n seed horizon seeds families fds scheds jobs shard_size
      shard_target_ms checkpoint resume out progress_f =
    let invalid what v known =
      Format.eprintf "fdsim: unknown %s %S (expected one of: %s)@." what v
        (String.concat ", " known);
      exit 2
    in
    let validate what values known =
      List.iter (fun v -> if not (List.mem v known) then invalid what v known)
        values
    in
    let family_names = List.map (fun f -> f.Pattern.Family.name) Pattern.Family.all in
    let families = if families = [] then family_names else families in
    let fds = if fds = [] then [ "P"; "P-delayed"; "S" ] else fds in
    let scheds = if scheds = [] then [ "fair"; "random" ] else scheds in
    validate "pattern family" families family_names;
    validate "detector" fds (List.map fst detector_names);
    validate "scheduler" scheds [ "fair"; "random" ];
    if resume && checkpoint = None then begin
      Format.eprintf "fdsim: --resume requires --checkpoint@.";
      exit 2
    end;
    let spec =
      Campaign.Spec.make ~name:"fdsim-campaign"
        ~axes:[ ("family", families); ("fd", fds); ("sched", scheds) ]
        ~seeds:(List.init seeds (fun i -> seed + i))
        ()
    in
    (* With --progress the rich telemetry line replaces the plain counter —
       both to stderr, one per shard. *)
    let sink =
      if progress_f then Obs.Trace.formatter Format.err_formatter
      else Obs.Trace.null
    in
    let progress ~done_ ~total =
      if not progress_f then
        Printf.eprintf "campaign: %d/%d jobs\n%!" done_ total
    in
    let report =
      Campaign.Engine.run_spec ~workers:jobs ?shard_size
        ?shard_target_ms ?checkpoint ~resume ~codec:campaign_codec ~progress
        ~sink ~seed spec
        (fun ~rng:_ ~metrics:_ job -> campaign_job ~n ~horizon job)
    in
    let lines = Campaign.Engine.report_lines campaign_codec report in
    (match out with
    | None -> ()
    | Some "-" -> List.iter print_endline lines
    | Some file ->
      let oc = open_out file in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc);
    let passed =
      List.length
        (List.filter
           (fun o -> o.Campaign.Engine.value.cr_pass)
           report.Campaign.Engine.outcomes)
    in
    Format.printf
      "campaign %s: %d jobs (%d resumed, %d duplicate, %d skipped lines), \
       %d/%d pass, workers=%d (%d pool domain(s), %d steal(s)), shard=%s, \
       %.2fs@."
      report.Campaign.Engine.campaign report.Campaign.Engine.total
      report.Campaign.Engine.resumed report.Campaign.Engine.duplicates
      report.Campaign.Engine.skipped passed report.Campaign.Engine.total
      report.Campaign.Engine.workers report.Campaign.Engine.pool_domains
      report.Campaign.Engine.steals
      (if report.Campaign.Engine.shard_size = 0 then "adaptive"
       else string_of_int report.Campaign.Engine.shard_size)
      report.Campaign.Engine.wall_s;
    exit_ok (passed = report.Campaign.Engine.total)
  in
  let seeds =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"K"
          ~doc:"Replicate seeds per grid point: seed, seed+1, ..., seed+K-1.")
  in
  let families =
    Arg.(
      value & opt_all string []
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Pattern family axis value (repeatable; default: all).")
  in
  let fds =
    Arg.(
      value & opt_all string []
      & info [ "fd" ] ~docv:"DETECTOR"
          ~doc:"Detector axis value (repeatable; default: P, P-delayed, S).")
  in
  let scheds =
    Arg.(
      value & opt_all string []
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:"Scheduler axis value: fair or random (repeatable; default both).")
  in
  let jobs =
    Arg.(
      value & opt workers_conv 1
      & info [ "jobs" ] ~docv:"N|auto"
          ~doc:
            "Worker slots ('auto' = the machine's recommended domain \
             count).  The report is byte-identical at any value — every job \
             derives its own random stream from the campaign seed and its \
             index alone, and the persistent pool steals work across slots.")
  in
  let shard_size =
    Arg.(
      value & opt (some int) None
      & info [ "shard-size" ] ~docv:"K"
          ~doc:
            "Force fixed batches of K jobs per claim.  Default: adaptive \
             batching sized online to --shard-target-ms of wall time per \
             batch.")
  in
  let shard_target_ms =
    Arg.(
      value & opt (some float) None
      & info [ "shard-target-ms" ] ~docv:"MS"
          ~doc:
            "Adaptive batching wall-time target per claimed batch (default \
             5ms); ignored with --shard-size.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL entry per finished job to $(docv); a killed \
             campaign can restart from it with --resume.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Load the --checkpoint file and run only the missing jobs; \
             never re-runs or duplicates a recorded job id.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the aggregated report as sorted JSONL (one job per line, \
             timing-free) to $(docv); '-' writes to stdout.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a (family x detector x scheduler x seed) consensus campaign on \
          a pool of worker domains, with deterministic per-job streams, \
          checkpoint/resume and an aggregated report.")
    Term.(
      const run $ n_arg $ seed_arg $ horizon_arg $ seeds $ families $ fds
      $ scheds $ jobs $ shard_size $ shard_target_ms $ checkpoint $ resume
      $ out $ progress_arg)

(* ---------- profile: the runtime observatory ---------- *)

let profile_cmd =
  let run n seed horizon seeds jobs scope capacity checkpoint out folded_out
      width =
    let timeline =
      Obs.Timeline.create ~capacity ~label:(Printf.sprintf "%s x%d" scope jobs)
        ()
    in
    (match scope with
    | "campaign" ->
      let spec =
        Campaign.Spec.make ~name:"fdsim-campaign"
          ~axes:
            [ ("family",
               List.map (fun f -> f.Pattern.Family.name) Pattern.Family.all);
              ("fd", [ "P"; "P-delayed"; "S" ]);
              ("sched", [ "fair"; "random" ]) ]
          ~seeds:(List.init seeds (fun i -> seed + i))
          ()
      in
      let (_ : campaign_result Campaign.Engine.report) =
        Campaign.Engine.run_spec ~workers:jobs ~timeline ?checkpoint
          ~codec:campaign_codec ~seed spec
          (fun ~rng:_ ~metrics:_ job -> campaign_job ~n ~horizon job)
      in
      ()
    | "explore" ->
      let xp = pattern_of ~n:3 [ (1, 2) ] in
      let (_ : int Explore.report) =
        Explore.run ~max_steps:7 ~canon:true ~por:true ~por_lambda:true
          ~timeline ~d_equal:Pid.Set.equal
          ~pattern:xp ~detector:Perfect.canonical
          ~check:(Explore.agreement_check ~equal:Int.equal)
          (Ct_strong.automaton ~proposals)
      in
      ()
    | other ->
      Format.eprintf "fdsim: unknown profile scope %S (campaign or explore)@."
        other;
      exit 2);
    let artifact = Obs.Timeline.merge timeline in
    Format.printf "%a@.@.%a@."
      (Obs.Timeline.pp_gantt ~width)
      artifact Obs.Timeline.pp_utilization artifact;
    (match out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Obs.Json.to_string (Obs.Timeline.to_json artifact));
      output_char oc '\n';
      close_out oc);
    (match folded_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      List.iter
        (fun line -> output_string oc line; output_char oc '\n')
        (Obs.Timeline.folded artifact);
      close_out oc);
    exit_ok true
  in
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~docv:"K" ~doc:"Replicate seeds per grid point.")
  in
  let jobs =
    Arg.(
      value & opt workers_conv 2
      & info [ "jobs" ] ~docv:"N|auto"
          ~doc:
            "Worker slots for the campaign scope ('auto' = the machine's \
             recommended domain count).")
  in
  let scope =
    Arg.(
      value & opt string "campaign"
      & info [ "scope" ] ~docv:"SCOPE"
          ~doc:
            "What to run under the observatory: $(b,campaign) (the T14 \
             consensus campaign) or $(b,explore) (the explorer's \
             depth-first walk).")
  in
  let capacity =
    Arg.(
      value & opt int 8192
      & info [ "capacity" ] ~docv:"K"
          ~doc:
            "Ring-buffer capacity per domain recorder; overflow overwrites \
             the oldest records and reports the count dropped.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the profiled campaign to $(docv), so the timeline \
             includes the fsynced checkpoint-append spans.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:"Write the merged timeline artifact (versioned JSON) to $(docv).")
  in
  let folded_out =
    Arg.(
      value & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded-stack lines (domain;span;... microseconds) to \
             $(docv) for flamegraph tooling.")
  in
  let width =
    Arg.(
      value & opt int 64
      & info [ "width" ] ~docv:"COLS" ~doc:"Gantt row width in cells.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the runtime observatory and print a \
          per-domain timeline: an ASCII Gantt of busy/idle/GC, a \
          utilization breakdown per span name, and optionally the full \
          JSON artifact and folded flamegraph stacks.")
    Term.(
      const run $ n_arg $ seed_arg $ horizon_arg $ seeds $ jobs $ scope
      $ capacity $ checkpoint $ out $ folded_out $ width)

(* ---------- main ---------- *)

let () =
  let doc = "A Realistic Look At Failure Detectors (DSN 2002), executable" in
  let info = Cmd.info "fdsim" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ check_cmd; survey_cmd; run_cmd; paxos_cmd; trb_cmd; reduce_cmd;
            qos_cmd; gms_cmd; vsync_cmd; nbac_cmd; explore_cmd; replay_cmd;
            shrink_cmd; render_cmd; metrics_cmd; campaign_cmd; profile_cmd ]))

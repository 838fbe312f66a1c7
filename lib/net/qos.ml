open Rlfd_kernel
open Rlfd_fd

type report = {
  detection_latencies : float list;
  undetected : int;
  false_episodes : int;
  partition_episodes : int;
  mistake_durations : float list;
  messages : int;
  complete : bool;
  accurate : bool;
}

let suspicion_intervals (r : _ Netsim.result) ~observer ~subject =
  let changes = Netsim.outputs_of r observer in
  let rec scan current acc = function
    | [] -> (
      match current with
      | None -> List.rev acc
      | Some start -> List.rev ((start, None) :: acc))
    | (t, set) :: rest -> (
      let suspected_now = Pid.Set.mem subject set in
      match (current, suspected_now) with
      | None, true -> scan (Some t) acc rest
      | Some start, false -> scan None ((start, Some t) :: acc) rest
      | None, false | Some _, true -> scan current acc rest)
  in
  scan None [] changes

let analyze ?(partitions = []) (r : _ Netsim.result) =
  let pattern = r.Netsim.pattern in
  let correct = Pid.Set.elements (Pattern.correct pattern) in
  let latencies = ref [] and undetected = ref 0 in
  let false_episodes = ref 0 and partition_episodes = ref 0 and mistakes = ref [] in
  let mistake observer subject start stop =
    incr false_episodes;
    (* classified at episode start — the same instant, and the same
       predicate, the simulator used to drop the messages that caused it *)
    if Partition.separated partitions observer subject ~at:start then
      incr partition_episodes;
    let stop = match stop with Some t -> t | None -> r.Netsim.end_time in
    mistakes := float_of_int (stop - start) :: !mistakes
  in
  let judge observer subject =
    let intervals = suspicion_intervals r ~observer ~subject in
    match Pattern.crash_time pattern subject with
    | None ->
      (* Correct subject: every suspicion episode is a mistake. *)
      List.iter (fun (start, stop) -> mistake observer subject start stop) intervals
    | Some ct -> (
      let crash_time = Time.to_int ct in
      (* Closed episodes that began before the crash are mistakes; the
         final open episode is the detection. *)
      List.iter
        (fun (start, stop) ->
          match stop with
          | Some _ when start < crash_time -> mistake observer subject start stop
          | Some _ | None -> ())
        intervals;
      match List.find_opt (fun (_, stop) -> stop = None) intervals with
      | Some (start, None) ->
        latencies := float_of_int (Stdlib.max 0 (start - crash_time)) :: !latencies
      | Some _ | None -> incr undetected)
  in
  List.iter
    (fun observer ->
      List.iter
        (fun subject -> if not (Pid.equal observer subject) then judge observer subject)
        (Pid.all ~n:r.Netsim.n))
    correct;
  {
    detection_latencies = !latencies;
    undetected = !undetected;
    false_episodes = !false_episodes;
    partition_episodes = !partition_episodes;
    mistake_durations = !mistakes;
    messages = r.Netsim.messages_delivered;
    complete = !undetected = 0;
    accurate = !false_episodes = 0;
  }

let perfect_grade report = report.complete && report.accurate

let undetected_fraction report =
  let crashed_pairs = List.length report.detection_latencies + report.undetected in
  if crashed_pairs = 0 then 0.
  else float_of_int report.undetected /. float_of_int crashed_pairs

let observe metrics report =
  let open Rlfd_obs.Metrics in
  List.iter (observe metrics "detection_latency") report.detection_latencies;
  List.iter (observe metrics "mistake_duration") report.mistake_durations;
  incr ~by:report.false_episodes metrics "false_suspicion_episodes";
  incr ~by:report.partition_episodes metrics "partition_suspicion_episodes";
  incr ~by:report.undetected metrics "undetected_crash_pairs";
  set_gauge metrics "undetected_fraction" (undetected_fraction report)

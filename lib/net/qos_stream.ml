open Rlfd_kernel
open Rlfd_fd
module Sketch = Rlfd_obs.Sketch
module Trace = Rlfd_obs.Trace

(* Per-pair state is allocated lazily, keyed by
   (observer-1) * n + (subject-1) in a hash table: an episode-start time
   (-1 = not currently suspected), the provisional detection latency of
   the currently-open episode for pairs whose subject is scheduled to
   crash, and the previous mistake start for correct subjects.  A pair
   that is never suspected never costs a byte, so memory is O(pairs ever
   suspected) — under a sparse monitoring topology with bounded churn
   that is O(n log n) at worst, which is what lets an n=10,000 scope
   stream where the old flat n*n arrays (gigabytes) could not.
   Everything else is a handful of sketches and counters, so memory is
   O(1) in run length. *)
type pair = {
  mutable since : int;
  mutable provisional : float; (* nan = no open episode on a crashed subject *)
  mutable last_mistake : int;
}

type t = {
  n : int;
  label : string;
  correct : bool array; (* by 0-based pid *)
  n_correct : int;
  crash_at : int array; (* scheduled crash time; max_int = never *)
  pairs_tbl : (int, pair) Hashtbl.t;
  suspecting : int array; (* by 0-based subject: correct observers with open episode *)
  crashed_subjects : (int * int) list; (* (crash time, 0-based pid), sorted *)
  partitions : Partition.t list;
  rolling_det : Sketch.t; (* provisional latencies, for live snapshots *)
  mistake : Sketch.t;
  recurrence : Sketch.t;
  mutable pa_mistake_time : float; (* closed mistakes on correct subjects *)
  mutable false_episodes : int;
  mutable partition_episodes : int;
  mutable suspected_pairs : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable dropped_partition : int;
  mutable retained : float list option; (* mistake durations, newest first *)
  mutable last_time : int;
  progress : Trace.sink;
  snapshot_every : int;
  mutable next_snapshot : int;
  mutable snap_time : int;
  mutable snap_sent : int;
}

let create ?(label = "qos") ?(snapshot_every = 0) ?(progress = Trace.null)
    ?(retain_samples = false) ?(partitions = []) ~n ~pattern () =
  if Pattern.n pattern <> n then
    invalid_arg "Qos_stream.create: pattern size mismatch";
  let correct = Array.make n false in
  Pid.Set.iter
    (fun p -> correct.(Pid.to_int p - 1) <- true)
    (Pattern.correct pattern);
  let crash_at =
    Array.init n (fun i ->
        match Pattern.crash_time pattern (Pid.of_int (i + 1)) with
        | Some t -> Time.to_int t
        | None -> max_int)
  in
  let crashed_subjects =
    Array.to_list crash_at
    |> List.mapi (fun i ct -> (ct, i))
    |> List.filter (fun (ct, _) -> ct < max_int)
    |> List.sort Stdlib.compare
  in
  {
    n;
    label;
    correct;
    n_correct = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 correct;
    crash_at;
    pairs_tbl = Hashtbl.create 256;
    suspecting = Array.make n 0;
    crashed_subjects;
    partitions;
    rolling_det = Sketch.create ();
    mistake = Sketch.create ();
    recurrence = Sketch.create ();
    pa_mistake_time = 0.;
    false_episodes = 0;
    partition_episodes = 0;
    suspected_pairs = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    dropped_partition = 0;
    retained = (if retain_samples then Some [] else None);
    last_time = 0;
    progress;
    snapshot_every;
    next_snapshot = snapshot_every;
    snap_time = 0;
    snap_sent = 0;
  }

let pct sketch q = if Sketch.is_empty sketch then 0. else Sketch.percentile sketch q

let separated_pair t ~o ~s ~at =
  t.partitions <> []
  && Partition.separated t.partitions (Pid.of_int (o + 1)) (Pid.of_int (s + 1)) ~at

let pair_of t o s =
  let key = (o * t.n) + s in
  match Hashtbl.find_opt t.pairs_tbl key with
  | Some p -> p
  | None ->
    let p = { since = -1; provisional = Float.nan; last_mistake = -1 } in
    Hashtbl.add t.pairs_tbl key p;
    p

(* Instantaneous detection coverage: over subjects already crashed at
   [now], how many correct observers currently suspect them.  O(crashed
   subjects), only paid per snapshot. *)
let coverage t ~now =
  List.fold_left
    (fun ((due, det) as acc) (ct, s) ->
      if ct > now then acc else (due + t.n_correct, det + t.suspecting.(s)))
    (0, 0) t.crashed_subjects

let snapshot t ~now =
  let due, det = coverage t ~now in
  let dt = now - t.snap_time in
  let bandwidth =
    if dt <= 0 then 0. else float_of_int (t.sent - t.snap_sent) /. float_of_int dt
  in
  Trace.emit t.progress
    (Trace.Qos_snapshot
       {
         time = now;
         label = t.label;
         suspected = t.suspected_pairs;
         detected = det;
         undetected = due - det;
         false_episodes = t.false_episodes;
         det_p50 = pct t.rolling_det 0.5;
         det_p95 = pct t.rolling_det 0.95;
         det_p99 = pct t.rolling_det 0.99;
         msgs = t.sent;
         bandwidth;
       });
  t.snap_time <- now;
  t.snap_sent <- t.sent;
  t.next_snapshot <- now + t.snapshot_every

let record_mistake t ~o ~s ~start duration =
  t.false_episodes <- t.false_episodes + 1;
  if separated_pair t ~o ~s ~at:start then
    t.partition_episodes <- t.partition_episodes + 1;
  Sketch.add t.mistake duration;
  match t.retained with
  | None -> ()
  | Some durations -> t.retained <- Some (duration :: durations)

let on_suspect t ~time ~observer ~subject ~on =
  let o = observer - 1 and s = subject - 1 in
  if o <> s && t.correct.(o) then begin
    let ct = t.crash_at.(s) in
    if on then begin
      let p = pair_of t o s in
      if p.since < 0 then begin
        p.since <- time;
        t.suspected_pairs <- t.suspected_pairs + 1;
        t.suspecting.(s) <- t.suspecting.(s) + 1;
        if ct < max_int then begin
          p.provisional <- float_of_int (Stdlib.max 0 (time - ct));
          if time >= ct then
            Sketch.add t.rolling_det (float_of_int (time - ct))
        end
        else begin
          if p.last_mistake >= 0 then
            Sketch.add t.recurrence (float_of_int (time - p.last_mistake));
          p.last_mistake <- time
        end
      end
    end
    else
      match Hashtbl.find_opt t.pairs_tbl ((o * t.n) + s) with
      | None -> ()
      | Some p ->
        if p.since >= 0 then begin
          let start = p.since in
          p.since <- -1;
          t.suspected_pairs <- t.suspected_pairs - 1;
          t.suspecting.(s) <- t.suspecting.(s) - 1;
          if ct = max_int then begin
            (* a false-suspicion episode of a correct subject *)
            let duration = float_of_int (time - start) in
            record_mistake t ~o ~s ~start duration;
            t.pa_mistake_time <- t.pa_mistake_time +. duration
          end
          else begin
            p.provisional <- Float.nan;
            (* closed before the crash = premature mistake; closed after =
               a post-crash flap Qos.analyze ignores *)
            if start < ct then record_mistake t ~o ~s ~start (float_of_int (time - start))
          end
        end
  end

let on_event t event =
  (match event with
  | Trace.Suspect { time; observer; subject; on } ->
    on_suspect t ~time ~observer ~subject ~on
  | Trace.Send _ -> t.sent <- t.sent + 1
  | Trace.Deliver _ -> t.delivered <- t.delivered + 1
  | Trace.Drop { time; src; dst } ->
    t.dropped <- t.dropped + 1;
    (* the simulator drops cross-cut sends before the link can: a drop
       between separated endpoints is a partition drop, not loss *)
    if
      t.partitions <> []
      && Partition.separated t.partitions (Pid.of_int src) (Pid.of_int dst) ~at:time
    then t.dropped_partition <- t.dropped_partition + 1
  | _ -> ());
  let time = Trace.time_of event in
  if time > t.last_time then t.last_time <- time;
  if
    t.snapshot_every > 0
    && (not (Trace.is_null t.progress))
    && time >= t.next_snapshot
  then snapshot t ~now:time

let sink t = Trace.callback (on_event t)

type summary = {
  label : string;
  n : int;
  pairs : int;
  detected : int;
  undetected : int;
  false_episodes : int;
  partition_episodes : int;
  detection : Sketch.t;
  mistake : Sketch.t;
  recurrence : Sketch.t;
  query_accuracy : float;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  dropped_partition : int;
  complete : bool;
  accurate : bool;
  end_time : int;
}

(* Close the books without touching estimator state, so [finish] can be
   called at any point (and more than once). *)
let finish (t : t) ~end_time =
  let detection = Sketch.create () in
  let mistake = Sketch.copy t.mistake in
  let detected = ref 0 and undetected = ref 0 in
  let false_episodes = ref t.false_episodes in
  let partition_episodes = ref t.partition_episodes in
  let pa_time = ref t.pa_mistake_time in
  List.iter
    (fun (_ct, s) ->
      for o = 0 to t.n - 1 do
        if t.correct.(o) && o <> s then
          match Hashtbl.find_opt t.pairs_tbl ((o * t.n) + s) with
          | Some p when p.since >= 0 ->
            incr detected;
            Sketch.add detection p.provisional
          | Some _ | None -> incr undetected
      done)
    t.crashed_subjects;
  (* still suspecting a correct subject: a mistake running to the end of
     the run, as Qos.analyze scores it *)
  Hashtbl.iter
    (fun key p ->
      if p.since >= 0 then begin
        let s = key mod t.n in
        if t.crash_at.(s) = max_int then begin
          let o = key / t.n in
          incr false_episodes;
          if separated_pair t ~o ~s ~at:p.since then incr partition_episodes;
          let duration = float_of_int (end_time - p.since) in
          Sketch.add mistake duration;
          pa_time := !pa_time +. duration
        end
      end)
    t.pairs_tbl;
  let c = t.n_correct in
  let correct_pairs = c * (c - 1) in
  let query_accuracy =
    if correct_pairs = 0 || end_time <= 0 then 1.
    else
      Float.max 0.
        (1. -. (!pa_time /. float_of_int (correct_pairs * end_time)))
  in
  {
    label = t.label;
    n = t.n;
    pairs = c * (t.n - 1);
    detected = !detected;
    undetected = !undetected;
    false_episodes = !false_episodes;
    partition_episodes = !partition_episodes;
    detection;
    mistake;
    recurrence = Sketch.copy t.recurrence;
    query_accuracy;
    messages_sent = t.sent;
    messages_delivered = t.delivered;
    messages_dropped = t.dropped;
    dropped_partition = t.dropped_partition;
    complete = !undetected = 0;
    accurate = !false_episodes = 0;
    end_time;
  }

let to_report (t : t) ~end_time =
  match t.retained with
  | None -> None
  | Some closed_mistakes ->
    let latencies = ref [] and undetected = ref 0 in
    let open_mistakes = ref [] and open_false = ref 0 in
    List.iter
      (fun (_ct, s) ->
        for o = 0 to t.n - 1 do
          if t.correct.(o) && o <> s then
            match Hashtbl.find_opt t.pairs_tbl ((o * t.n) + s) with
            | Some p when p.since >= 0 -> latencies := p.provisional :: !latencies
            | Some _ | None -> incr undetected
        done)
      t.crashed_subjects;
    (* sort keys so the list order is independent of hashing *)
    Hashtbl.fold (fun key p acc -> (key, p) :: acc) t.pairs_tbl []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
    |> List.iter (fun (key, p) ->
           if p.since >= 0 && t.crash_at.(key mod t.n) = max_int then begin
             incr open_false;
             open_mistakes := float_of_int (end_time - p.since) :: !open_mistakes
           end);
    let false_episodes = t.false_episodes + !open_false in
    let partition_episodes =
      (* recount in one pass: closed-episode classifications are already in
         the counter, open ones classify at their start *)
      t.partition_episodes
      + (Hashtbl.fold
           (fun key p acc ->
             if
               p.since >= 0
               && t.crash_at.(key mod t.n) = max_int
               && separated_pair t ~o:(key / t.n) ~s:(key mod t.n) ~at:p.since
             then acc + 1
             else acc)
           t.pairs_tbl 0)
    in
    Some
      {
        Qos.detection_latencies = !latencies;
        undetected = !undetected;
        false_episodes;
        partition_episodes;
        mistake_durations = !open_mistakes @ List.rev closed_mistakes;
        messages = t.delivered;
        complete = !undetected = 0;
        accurate = false_episodes = 0;
      }

let agrees summary (report : Qos.report) =
  let ( let* ) r f = Result.bind r f in
  let check_int name streaming posthoc =
    if streaming = posthoc then Ok ()
    else
      Error
        (Printf.sprintf "%s: streaming=%d post-hoc=%d" name streaming posthoc)
  in
  let check_bool name streaming posthoc =
    if streaming = posthoc then Ok ()
    else
      Error
        (Printf.sprintf "%s: streaming=%b post-hoc=%b" name streaming posthoc)
  in
  let check_sketch name sketch samples =
    let* () = check_int (name ^ " count") (Sketch.count sketch) (List.length samples) in
    if samples = [] then Ok ()
    else
      let close a b =
        Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b)
      in
      if not (close (Sketch.sum sketch) (Stats.sum samples)) then
        Error
          (Printf.sprintf "%s sum: streaming=%g post-hoc=%g" name
             (Sketch.sum sketch) (Stats.sum samples))
      else if not (close (Sketch.min_value sketch) (Stats.minimum samples)) then
        Error
          (Printf.sprintf "%s min: streaming=%g post-hoc=%g" name
             (Sketch.min_value sketch) (Stats.minimum samples))
      else if not (close (Sketch.max_value sketch) (Stats.maximum samples)) then
        Error
          (Printf.sprintf "%s max: streaming=%g post-hoc=%g" name
             (Sketch.max_value sketch) (Stats.maximum samples))
      else Ok ()
  in
  let* () =
    check_int "detected" summary.detected
      (List.length report.Qos.detection_latencies)
  in
  let* () = check_int "undetected" summary.undetected report.Qos.undetected in
  let* () =
    check_int "false_episodes" summary.false_episodes report.Qos.false_episodes
  in
  let* () =
    check_int "partition_episodes" summary.partition_episodes
      report.Qos.partition_episodes
  in
  let* () = check_int "messages" summary.messages_delivered report.Qos.messages in
  let* () = check_bool "complete" summary.complete report.Qos.complete in
  let* () = check_bool "accurate" summary.accurate report.Qos.accurate in
  let* () =
    check_sketch "detection_latency" summary.detection
      report.Qos.detection_latencies
  in
  check_sketch "mistake_duration" summary.mistake report.Qos.mistake_durations

let observe metrics summary =
  let open Rlfd_obs.Metrics in
  observe_sketch metrics "detection_latency" summary.detection;
  observe_sketch metrics "mistake_duration" summary.mistake;
  observe_sketch metrics "mistake_recurrence" summary.recurrence;
  incr ~by:summary.false_episodes metrics "false_suspicion_episodes";
  incr ~by:summary.partition_episodes metrics "partition_suspicion_episodes";
  incr ~by:summary.dropped_partition metrics "qos_messages_dropped_partition";
  incr ~by:summary.undetected metrics "undetected_crash_pairs";
  set_gauge metrics "undetected_fraction"
    (if summary.detected + summary.undetected = 0 then 0.
     else
       float_of_int summary.undetected
       /. float_of_int (summary.detected + summary.undetected));
  set_gauge metrics "query_accuracy" summary.query_accuracy

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>scope: %s (n=%d, %d pairs)@ detection: %a@ detected/undetected: %d/%d@ false episodes: %d (%d partition-induced)@ mistake durations: %a@ mistake recurrence: %a@ query accuracy: %.4f@ messages: %d sent, %d delivered, %d dropped (%d by partition)@ perfect-grade: %b@]"
    s.label s.n s.pairs Sketch.pp s.detection s.detected s.undetected
    s.false_episodes s.partition_episodes Sketch.pp s.mistake Sketch.pp
    s.recurrence s.query_accuracy s.messages_sent s.messages_delivered
    s.messages_dropped s.dropped_partition
    (s.complete && s.accurate)

open Rlfd_kernel
open Rlfd_fd
module Recorder = Rlfd_obs.Recorder

type schedule = (Pid.t * (Pid.t * string) option) list

type step_info = {
  pid : Pid.t;
  received : (Pid.t * int) option;
  sent : (Pid.t * int) list;
  outputs : string list;
  seen : string;
}

type 'o execution = {
  steps : step_info list;
  outputs : (int * Pid.t * 'o) list;
  violation : (int * string) option;
  decisions : string list;
  final : string;
  dropped : int;
  executed : schedule;
}

(* The executor drives the Runner's step under the schedule instead of a
   scheduler, with Explore's clock (one tick per step) and Explore's
   canonical encodings, so a schedule lifted out of a violation replays to
   byte-identical outcomes.  Unlike the explorer it follows a single path,
   and unlike the Runner it is total in the schedule: an entry it cannot
   honour (a process outside 1..n or dead, an unresolvable message) is
   dropped, counted, and left out of [executed].  That totality is what
   lets the shrinker throw arbitrary subsequences at it. *)
let execute (type s m d o) ?(pp_output = fun (_ : o) -> "_")
    ?(pp_seen = fun (_ : d) -> "_") ~pattern ~(detector : d Detector.t)
    ~(check : (Pid.t * o) list -> string option) ~(schedule : schedule)
    (algo : (s, m, d, o) Model.t) : o execution =
  let n = Pattern.n pattern in
  let c = Runner.initial ~n algo in
  let encode (e : m Runner.tagged Model.envelope) =
    Canon.encode_value (e.Model.src, e.Model.dst, e.Model.payload.Runner.payload)
  in
  let step_no = ref 0 in
  let steps = ref [] in
  let run_outputs = ref [] in
  let output_encs = ref [] in
  let violation = ref None in
  let dropped = ref 0 in
  let executed = ref [] in
  (* The Runner does not buffer messages to crashed processes, but the
     explorer's state lists them: they are kept here for the final state. *)
  let dead_letters = ref [] in
  let decisions = ref [ Canon.multiset [] ] in
  List.iter
    (fun ((p, recv) : Pid.t * (Pid.t * string) option) ->
      let now = Time.of_int !step_no in
      (* Resolve the prescribed reception to the oldest pending message to
         [p] from [src] whose canonical bytes match — by sender alone when
         the schedule carries no payload (a capture-less schedule). *)
      let resolved =
        if Pid.to_int p > n || not (Pattern.is_alive pattern p now) then None
        else
          match recv with
          | None -> Some None
          | Some (src, payload) ->
            Buffer.pending c.Runner.buffer p
            |> List.find_opt (fun (_, e) ->
                   Pid.equal e.Model.src src
                   && (payload = "" || String.equal (encode e) payload))
            |> Option.map Option.some
      in
      match resolved with
      | None -> incr dropped
      | Some msg ->
        let s =
          Runner.step ~pattern ~detector algo c ~time:now ~pid:p
            ~receive:(Option.map fst msg)
        in
        let effects = s.Runner.effects in
        List.iter
          (fun (dst, payload) ->
            if Pattern.is_crashed pattern dst now then
              dead_letters := Canon.encode_value (p, dst, payload) :: !dead_letters)
          effects.Model.sends;
        incr step_no;
        List.iter
          (fun o -> run_outputs := (!step_no - 1, p, o) :: !run_outputs)
          effects.Model.outputs;
        if effects.Model.outputs <> [] then begin
          output_encs :=
            List.fold_left
              (fun acc o -> Canon.encode_value (p, o) :: acc)
              !output_encs effects.Model.outputs;
          let enc = Canon.multiset !output_encs in
          if not (List.exists (String.equal enc) !decisions) then
            decisions := enc :: !decisions;
          if !violation = None then begin
            let so_far = List.rev_map (fun (_, p, o) -> (p, o)) !run_outputs in
            match check so_far with
            | Some reason -> violation := Some (!step_no, reason)
            | None -> ()
          end
        end;
        steps :=
          {
            pid = p;
            received = Option.map (fun (id, e) -> (e.Model.src, id)) msg;
            sent = List.combine (List.map fst effects.Model.sends) s.Runner.sent_ids;
            outputs = List.map pp_output effects.Model.outputs;
            seen = pp_seen s.Runner.seen;
          }
          :: !steps;
        executed :=
          (p, Option.map (fun (_, e) -> (e.Model.src, encode e)) msg) :: !executed)
    schedule;
  let messages = ref !dead_letters in
  Buffer.iter c.Runner.buffer (fun _ e -> messages := encode e :: !messages);
  {
    steps = List.rev !steps;
    outputs = List.rev !run_outputs;
    violation = !violation;
    decisions = List.sort String.compare !decisions;
    final =
      Canon.assemble ~step_no:!step_no
        ~states:(Array.to_list (Array.map Canon.encode_value c.Runner.states))
        ~messages:!messages ~outputs:!output_encs;
    dropped = !dropped;
    executed = List.rev !executed;
  }

(* ---------- artifact bridge ---------- *)

let to_artifact ~scope (e : _ execution) =
  let choices =
    List.map
      (fun ((p, recv) : Pid.t * (Pid.t * string) option) ->
        {
          Recorder.at = None;
          pid = Pid.to_int p;
          recv =
            Option.map
              (fun (src, enc) ->
                {
                  Recorder.src = Pid.to_int src;
                  msg = None;
                  payload = Recorder.hex_encode enc;
                })
              recv;
        })
      e.executed
  in
  let queries =
    List.mapi
      (fun i (s : step_info) ->
        { Recorder.step = i; pid = Pid.to_int s.pid; seen = s.seen })
      e.steps
  in
  let outputs =
    List.concat
      (List.mapi
         (fun i (s : step_info) ->
           List.map (fun o -> (i, Pid.to_int s.pid, o)) s.outputs)
         e.steps)
  in
  let outcome =
    {
      Recorder.violation = Option.map snd e.violation;
      at_step = (match e.violation with Some (at, _) -> at | None -> -1);
      decisions = Recorder.hex_encode (Canon.multiset e.decisions);
      final = Recorder.hex_encode e.final;
      outputs;
    }
  in
  { Recorder.kind = Explore; scope; choices; queries; outcome }

let runner_artifact ~scope ?(pp_output = fun _ -> "_") ~queries
    (r : _ Runner.result) =
  let choices =
    List.map
      (fun (e : _ Runner.event) ->
        {
          Recorder.at = Some (Time.to_int e.Runner.time);
          pid = Pid.to_int e.Runner.pid;
          recv =
            (match (e.Runner.received, e.Runner.received_id) with
            | Some src, Some id ->
              Some { Recorder.src = Pid.to_int src; msg = Some id; payload = "" }
            | _ -> None);
        })
      (Runner.events r)
  in
  let queries =
    List.map
      (fun (t, pid, seen) -> { Recorder.step = t; pid; seen })
      queries
  in
  let outputs =
    List.map
      (fun (t, p, o) -> (Time.to_int t, Pid.to_int p, pp_output o))
      r.Runner.outputs
  in
  let decisions =
    Canon.multiset
      (List.map (fun (_, p, o) -> Canon.encode_value (p, o)) r.Runner.outputs)
  in
  let outcome =
    {
      Recorder.violation = None;
      at_step = -1;
      decisions = Recorder.hex_encode decisions;
      final =
        Recorder.hex_encode
          (Canon.encode_value (Pid.Map.bindings r.Runner.final_states));
      outputs;
    }
  in
  { Recorder.kind = Run; scope; choices; queries; outcome }

(* Choices come from disk: one naming a process below 1 makes the artifact
   an [Error], not [Pid.of_int]'s exception. *)
let with_valid_pids (a : Recorder.t) decode =
  let invalid (c : Recorder.choice) =
    c.pid < 1 || match c.recv with Some r -> r.src < 1 | None -> false
  in
  match List.find_index invalid a.choices with
  | Some i -> Error (Printf.sprintf "choice %d names a process below 1" i)
  | None -> decode a.choices

let replay_entries (a : Recorder.t) =
  with_valid_pids a (fun choices ->
      Ok
        (List.filter_map
           (fun (c : Recorder.choice) ->
             Option.map
               (fun at ->
                 (at, Pid.of_int c.pid, Option.bind c.recv (fun r -> r.Recorder.msg)))
               c.at)
           choices))

let schedule_of_artifact (a : Recorder.t) =
  let ( let* ) = Result.bind in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (c : Recorder.choice) :: rest ->
      let* recv =
        match c.recv with
        | None -> Ok None
        | Some r ->
          let* payload = Recorder.hex_decode r.payload in
          Ok (Some (Pid.of_int r.src, payload))
      in
      go ((Pid.of_int c.pid, recv) :: acc) rest
  in
  with_valid_pids a (go [])

(* Repackaging the replay as an artifact renders its outcome exactly as
   the recording did, so the comparison is field by field. *)
let check_against (a : Recorder.t) (e : _ execution) =
  let mismatches = ref [] in
  let fail fmt = Format.kasprintf (fun m -> mismatches := m :: !mismatches) fmt in
  let recorded = a.outcome and replayed = to_artifact ~scope:a.scope e in
  if not (String.equal recorded.decisions replayed.outcome.decisions) then
    fail "decision set differs from the recorded one";
  if not (String.equal recorded.final replayed.outcome.final) then
    fail "canonical final state differs from the recorded one";
  (match (recorded.violation, e.violation) with
  | None, None -> ()
  | Some r, Some (at, r') ->
    if not (String.equal r r') then
      fail "violation reason differs: recorded %S, replayed %S" r r';
    if recorded.at_step <> at then
      fail "violation step differs: recorded %d, replayed %d" recorded.at_step
        at
  | Some r, None -> fail "recorded violation %S did not reproduce" r
  | None, Some (_, r) -> fail "replay violated (%S) but the recording did not" r);
  if a.queries <> [] && a.queries <> replayed.queries then
    fail "detector query log differs from the recorded one";
  if recorded.outputs <> replayed.outcome.outputs then
    fail "output log differs from the recorded one";
  List.rev !mismatches

(* ---------- delta-debugging shrinker ---------- *)

type 'o shrunk = {
  schedule : schedule;
  execution : 'o execution;
  rounds : int;
  candidates : int;
}

let split_chunks k xs =
  let len = List.length xs in
  let base = len / k and extra = len mod k in
  let rec go i xs acc =
    if i >= k then List.rev acc
    else begin
      let size = base + if i < extra then 1 else 0 in
      let rec take n xs acc =
        if n = 0 then (List.rev acc, xs)
        else
          match xs with
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) rest (x :: acc)
      in
      let chunk, rest = take size xs [] in
      go (i + 1) rest (chunk :: acc)
    end
  in
  go 0 xs []

let shrink ?pp_output ?pp_seen ~pattern ~detector ~check ~schedule algo =
  let exec s =
    execute ?pp_output ?pp_seen ~pattern ~detector ~check ~schedule:s algo
  in
  let original = exec schedule in
  if original.violation = None then
    invalid_arg "Replay.shrink: the schedule does not violate";
  let rounds = ref 0 and candidates = ref 0 in
  (* Normalize to the effective schedule first: replaying [executed] drops
     nothing, so every later candidate is a subsequence of a clean base. *)
  let best = ref original.executed and best_exec = ref (exec original.executed) in
  (* ddmin over subsequences: try dropping each of [k] chunks; on success
     restart from the (normalized) survivor with coarser granularity, on
     failure refine k until chunks are single steps. *)
  let rec ddmin sched k =
    incr rounds;
    let len = List.length sched in
    if len <= 1 then sched
    else begin
      let k = Stdlib.min k len in
      let chunks = split_chunks k sched in
      let rec try_drop i =
        if i >= k then None
        else begin
          let candidate =
            List.concat
              (List.filteri (fun j _ -> j <> i) chunks)
          in
          incr candidates;
          let e = exec candidate in
          if e.violation <> None && List.length e.executed < len then begin
            best := e.executed;
            best_exec := e;
            Some e.executed
          end
          else try_drop (i + 1)
        end
      in
      match try_drop 0 with
      | Some survivor -> ddmin survivor (Stdlib.max 2 (k - 1))
      | None -> if k < len then ddmin sched (Stdlib.min len (2 * k)) else sched
    end
  in
  let _final = ddmin !best 2 in
  { schedule = !best; execution = !best_exec; rounds = !rounds;
    candidates = !candidates }

open Rlfd_kernel
open Rlfd_fd

type 'm tagged = { payload : 'm; hf : Pid.Set.t }

type ('s, 'm) config = {
  states : 's array;
  heard_from : Pid.Set.t array;
  buffer : 'm tagged Model.envelope Buffer.t;
}

let initial ~n (algo : _ Model.t) =
  {
    states = Array.of_list (List.map (fun p -> algo.initial ~n p) (Pid.all ~n));
    heard_from = Array.of_list (List.map Pid.Set.singleton (Pid.all ~n));
    buffer = Buffer.create ~dst:(fun e -> e.Model.dst);
  }

type ('s, 'm, 'd, 'o) transition = {
  received : 'm tagged Model.envelope option;
  seen : 'd;
  effects : ('s, 'm, 'o) Model.effects;
  sent_ids : Buffer.id list;
}

(* The ids of a step's sends, drawn in order.  A process crashed by now
   never steps again, so a message to it is never received (Section 2): it
   gets its id, and is not stored. *)
let rec put_in_transit ~pattern ~time buffer ~src ~hf = function
  | [] -> []
  | (dst, payload) :: rest ->
    let id =
      if Pattern.is_crashed pattern dst time then Buffer.skip buffer
      else Buffer.add buffer { Model.src; dst; payload = { payload; hf } }
    in
    id :: put_in_transit ~pattern ~time buffer ~src ~hf rest

let step ~pattern ~detector (algo : _ Model.t) c ~time ~pid ~receive =
  if Pattern.is_crashed pattern pid time then
    invalid_arg "Runner.step: a crashed process stepped";
  let i = Pid.to_int pid - 1 in
  let received =
    match receive with
    | None -> None
    | Some id -> (
      match Buffer.remove c.buffer id with
      | None -> invalid_arg "Runner.step: a consumed message was delivered"
      | Some e as received ->
        if not (Pid.equal e.Model.dst pid) then
          invalid_arg "Runner.step: a message was misdelivered";
        let hf = e.Model.payload.hf in
        (* Keep the set when the message adds no one: most steps' sets
           are then shared, not copied. *)
        if not (Pid.Set.subset hf c.heard_from.(i)) then
          c.heard_from.(i) <- Pid.Set.union c.heard_from.(i) hf;
        received)
  in
  let seen = Detector.query detector pattern pid time in
  let plain =
    match received with
    | None -> None
    | Some e -> Some { e with Model.payload = e.Model.payload.payload }
  in
  let effects = algo.step ~n:(Array.length c.states) ~self:pid c.states.(i) plain seen in
  c.states.(i) <- effects.Model.state;
  let sent_ids =
    put_in_transit ~pattern ~time c.buffer ~src:pid ~hf:c.heard_from.(i)
      effects.Model.sends
  in
  { received; seen; effects; sent_ids }

type 'o event = {
  time : Time.t;
  pid : Pid.t;
  received : Pid.t option;
  received_id : Buffer.id option;
  sent_to : Pid.t list;
  sent_ids : Buffer.id list;
  outputs : 'o list;
  heard_from : Pid.Set.t;
}

(* Step [k] of a run, one column each: a lambda step has sender 0 and
   received id -1.  Its sends are ids [first_sent.(k)] up to the next
   step's first id, or to the end of [dsts] for the last step, and message
   [id] goes to [dsts.(id)]: a step draws one id per send, in order. *)
type 'o log = {
  times : Time.t array;
  pids : Pid.t array;
  senders : int array;
  received_ids : int array;
  first_sent : int array;
  step_outputs : 'o list array;
  heard : Pid.Set.t array;
  dsts : Pid.t array;
}

type ('s, 'o) result = {
  n : int;
  pattern : Pattern.t;
  algorithm : string;
  log : 'o log;
  outputs : (Time.t * Pid.t * 'o) list;
  final_states : 's Pid.Map.t;
  steps : int;
  idle_ticks : int;
  sent : int;
  delivered : int;
  end_time : Time.t;
  stopped_early : bool;
}

(* Step [k] of the log, as an event. *)
let event_at l k =
  let first = l.first_sent.(k) in
  let last =
    if k + 1 < Array.length l.times then l.first_sent.(k + 1) else Array.length l.dsts
  in
  let sent_ids = List.init (last - first) (fun j -> first + j) in
  {
    time = l.times.(k);
    pid = l.pids.(k);
    received = (if l.senders.(k) = 0 then None else Some (Pid.of_int l.senders.(k)));
    received_id = (if l.received_ids.(k) < 0 then None else Some l.received_ids.(k));
    sent_to = List.map (fun id -> l.dsts.(id)) sent_ids;
    sent_ids;
    outputs = l.step_outputs.(k);
    heard_from = l.heard.(k);
  }

let events r = List.init (Array.length r.log.times) (event_at r.log)

let output_events r =
  let l = r.log in
  let rec back k acc =
    if k < 0 then acc
    else
      match l.step_outputs.(k) with
      | [] -> back (k - 1) acc
      | _ :: _ -> back (k - 1) (event_at l k :: acc)
  in
  back (Array.length l.times - 1) []

(* A growable array: [data.(0 .. len - 1)] are the values pushed. *)
module Column = struct
  type 'a t = { mutable data : 'a array; mutable len : int; fill : 'a }

  let create fill = { data = Array.make 256 fill; len = 0; fill }

  let push c x =
    if c.len = Array.length c.data then begin
      let data = Array.make (2 * c.len) c.fill in
      Array.blit c.data 0 data 0 c.len;
      c.data <- data
    end;
    Array.unsafe_set c.data c.len x;
    c.len <- c.len + 1

  let contents c = Array.sub c.data 0 c.len
end

let run ?(until = fun _ -> false) ?(sink = Rlfd_obs.Trace.null)
    ?(pp_output = fun _ -> "_") ?pp_seen ~pattern ~detector ~scheduler ~horizon
    (algo : _ Model.t) =
  let n = Pattern.n pattern in
  let tracing = not (Rlfd_obs.Trace.is_null sink) in
  let c = initial ~n algo in
  let times = Column.create Time.zero and pids = Column.create (Pid.of_int 1) in
  let senders = Column.create 0 and received_ids = Column.create 0 in
  let first_sent = Column.create 0 and step_outputs = Column.create [] in
  let heard = Column.create Pid.Set.empty and dsts = Column.create (Pid.of_int 1) in
  let outputs = ref [] in
  let steps = ref 0 and idle = ref 0 and sent = ref 0 and delivered = ref 0 in
  let stopped = ref false in
  let pending = Buffer.pending c.buffer in
  let push_dst (dst, _) = Column.push dsts dst in
  (* The alive list changes only at crash times: it is rebuilt when the
     clock reaches [next_crash], the earliest crash time after the last
     rebuild (the horizon if there is none). *)
  let alive = ref [] and next_crash = ref Time.zero in
  let t = ref Time.zero in
  while Time.(!t < horizon) && not !stopped do
    let now = !t in
    if Time.(now >= !next_crash) then begin
      alive := List.filter (fun p -> Pattern.is_alive pattern p now) (Pid.all ~n);
      next_crash :=
        List.fold_left
          (fun next p ->
            match Pattern.crash_time pattern p with
            | Some ct when Time.(ct > now) -> Time.min ct next
            | Some _ | None -> next)
          horizon (Pid.all ~n)
    end;
    let view = { Scheduler.time = now; alive = !alive; pending } in
    (match Scheduler.choose scheduler view with
    | Scheduler.Idle -> incr idle
    | Scheduler.Step { pid; receive } ->
      let s = step ~pattern ~detector algo c ~time:now ~pid ~receive in
      let effects = s.effects in
      let i = Pid.to_int pid - 1 in
      Column.push times now;
      Column.push pids pid;
      (match s.received with
      | None ->
        Column.push senders 0;
        Column.push received_ids (-1)
      | Some e ->
        Column.push senders (Pid.to_int e.Model.src);
        Column.push received_ids (Option.get receive);
        incr delivered);
      (* The buffer is this run's own, so its ids are the sends so far. *)
      Column.push first_sent !sent;
      List.iter push_dst effects.Model.sends;
      Column.push step_outputs effects.Model.outputs;
      Column.push heard c.heard_from.(i);
      sent := !sent + List.length s.sent_ids;
      List.iter (fun o -> outputs := (now, pid, o) :: !outputs) effects.Model.outputs;
      incr steps;
      if tracing then
        Rlfd_obs.Trace.(
          emit sink
            (Step
               {
                 time = Time.to_int now;
                 pid = Pid.to_int pid;
                 received_from =
                   Option.map
                     (fun (e : _ Model.envelope) -> Pid.to_int e.Model.src)
                     s.received;
                 sent_to = List.map (fun (dst, _) -> Pid.to_int dst) effects.Model.sends;
                 outputs = List.map pp_output effects.Model.outputs;
                 seen = Option.map (fun f -> f s.seen) pp_seen;
               }));
      (match effects.Model.outputs with
      | [] -> ()
      | _ :: _ -> if until !outputs then stopped := true));
    t := Time.succ !t
  done;
  let final_states =
    List.fold_left
      (fun acc p -> Pid.Map.add p c.states.(Pid.to_int p - 1) acc)
      Pid.Map.empty (Pid.all ~n)
  in
  let log =
    {
      times = Column.contents times;
      pids = Column.contents pids;
      senders = Column.contents senders;
      received_ids = Column.contents received_ids;
      first_sent = Column.contents first_sent;
      step_outputs = Column.contents step_outputs;
      heard = Column.contents heard;
      dsts = Column.contents dsts;
    }
  in
  {
    n;
    pattern;
    algorithm = algo.name;
    log;
    outputs = List.rev !outputs;
    final_states;
    steps = !steps;
    idle_ticks = !idle;
    sent = !sent;
    delivered = !delivered;
    end_time = !t;
    stopped_early = !stopped;
  }

let outputs_of r pid =
  List.filter_map
    (fun (t, p, o) -> if Pid.equal p pid then Some (t, o) else None)
    r.outputs

let first_output r pid =
  match outputs_of r pid with [] -> None | x :: _ -> Some x

let stop_when_all_correct_output pattern =
  let correct = Pattern.correct pattern in
  fun outputs ->
    Pid.Set.for_all
      (fun p -> List.exists (fun (_, q, _) -> Pid.equal p q) outputs)
      correct

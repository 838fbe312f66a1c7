open Rlfd_kernel
open Rlfd_fd

type 'm tagged = { payload : 'm; hf : Pid.Set.t; vc : Vclock.t }

type ('s, 'm) config = {
  states : 's array;
  heard_from : Pid.Set.t array;
  vclocks : Vclock.t array;
  buffer : 'm tagged Model.envelope Buffer.t;
}

let initial ~n (algo : _ Model.t) =
  {
    states = Array.of_list (List.map (fun p -> algo.initial ~n p) (Pid.all ~n));
    heard_from = Array.of_list (List.map Pid.Set.singleton (Pid.all ~n));
    vclocks = Array.make n Vclock.empty;
    buffer = Buffer.create ~dst:(fun e -> e.Model.dst);
  }

type ('s, 'm, 'd, 'o) transition = {
  received : 'm tagged Model.envelope option;
  seen : 'd;
  effects : ('s, 'm, 'o) Model.effects;
  sent_ids : Buffer.id list;
}

let step ~pattern ~detector (algo : _ Model.t) c ~time ~pid ~receive =
  if Pattern.is_crashed pattern pid time then
    invalid_arg "Runner.step: a crashed process stepped";
  let i = Pid.to_int pid - 1 in
  let received =
    Option.map
      (fun id ->
        match Buffer.remove c.buffer id with
        | None -> invalid_arg "Runner.step: a consumed message was delivered"
        | Some e ->
          if not (Pid.equal e.Model.dst pid) then
            invalid_arg "Runner.step: a message was misdelivered";
          c.heard_from.(i) <- Pid.Set.union c.heard_from.(i) e.Model.payload.hf;
          c.vclocks.(i) <- Vclock.merge c.vclocks.(i) e.Model.payload.vc;
          e)
      receive
  in
  c.vclocks.(i) <- Vclock.tick c.vclocks.(i) pid;
  let seen = Detector.query detector pattern pid time in
  let plain =
    Option.map
      (fun (e : _ Model.envelope) -> { e with Model.payload = e.Model.payload.payload })
      received
  in
  let effects = algo.step ~n:(Array.length c.states) ~self:pid c.states.(i) plain seen in
  c.states.(i) <- effects.Model.state;
  let sent_ids =
    List.map
      (fun (dst, payload) ->
        let tagged = { payload; hf = c.heard_from.(i); vc = c.vclocks.(i) } in
        Buffer.add c.buffer { Model.src = pid; dst; payload = tagged })
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
  vclock : Vclock.t;
}

type ('s, 'o) result = {
  n : int;
  pattern : Pattern.t;
  algorithm : string;
  events : 'o event list;
  outputs : (Time.t * Pid.t * 'o) list;
  final_states : 's Pid.Map.t;
  steps : int;
  idle_ticks : int;
  sent : int;
  delivered : int;
  end_time : Time.t;
  stopped_early : bool;
}

let run ?(until = fun _ -> false) ?(record_events = true)
    ?(sink = Rlfd_obs.Trace.null) ?metrics ?(pp_output = fun _ -> "_") ?pp_seen
    ~pattern ~detector ~scheduler ~horizon (algo : _ Model.t) =
  let n = Pattern.n pattern in
  let tracing = not (Rlfd_obs.Trace.is_null sink) in
  let mincr ?by name =
    match metrics with
    | None -> ()
    | Some m -> Rlfd_obs.Metrics.incr ?by m name
  in
  let c = initial ~n algo in
  let events = ref [] in
  let outputs = ref [] in
  let steps = ref 0 and idle = ref 0 and sent = ref 0 and delivered = ref 0 in
  let stopped = ref false in
  let pending = Buffer.pending c.buffer in
  let t = ref Time.zero in
  while Time.(!t < horizon) && not !stopped do
    let now = !t in
    let alive =
      List.filter (fun p -> Pattern.is_alive pattern p now) (Pid.all ~n)
    in
    let view =
      {
        Scheduler.n;
        time = now;
        alive;
        pending;
        steps_of = (fun p -> Vclock.get c.vclocks.(Pid.to_int p - 1) p);
      }
    in
    (match Scheduler.choose scheduler view with
    | Scheduler.Idle ->
      incr idle;
      mincr "idle_ticks"
    | Scheduler.Step { pid; receive } ->
      let s = step ~pattern ~detector algo c ~time:now ~pid ~receive in
      let effects = s.effects in
      if Option.is_some s.received then begin
        incr delivered;
        mincr "messages_delivered"
      end;
      sent := !sent + List.length s.sent_ids;
      List.iter (fun o -> outputs := (now, pid, o) :: !outputs) effects.Model.outputs;
      incr steps;
      mincr "steps";
      mincr ~by:(List.length effects.Model.sends) "messages_sent";
      mincr ~by:(List.length effects.Model.outputs) "outputs";
      let received = Option.map (fun (e : _ Model.envelope) -> e.Model.src) s.received in
      if tracing then
        Rlfd_obs.Trace.(
          emit sink
            (Step
               {
                 time = Time.to_int now;
                 pid = Pid.to_int pid;
                 received_from = Option.map Pid.to_int received;
                 sent_to = List.map (fun (dst, _) -> Pid.to_int dst) effects.Model.sends;
                 outputs = List.map pp_output effects.Model.outputs;
                 seen = Option.map (fun f -> f s.seen) pp_seen;
               }));
      if record_events then begin
        let i = Pid.to_int pid - 1 in
        events :=
          {
            time = now;
            pid;
            received;
            received_id = receive;
            sent_to = List.map fst effects.Model.sends;
            sent_ids = s.sent_ids;
            outputs = effects.Model.outputs;
            heard_from = c.heard_from.(i);
            vclock = c.vclocks.(i);
          }
          :: !events
      end;
      if effects.Model.outputs <> [] && until !outputs then stopped := true);
    t := Time.succ !t
  done;
  let final_states =
    List.fold_left
      (fun acc p -> Pid.Map.add p c.states.(Pid.to_int p - 1) acc)
      Pid.Map.empty (Pid.all ~n)
  in
  {
    n;
    pattern;
    algorithm = algo.name;
    events = List.rev !events;
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

let stop_when_all_correct_output pattern outputs =
  let correct = Pattern.correct pattern in
  Pid.Set.for_all
    (fun p -> List.exists (fun (_, q, _) -> Pid.equal p q) outputs)
    correct

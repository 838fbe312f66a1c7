open Rlfd_kernel
open Rlfd_fd

type time = int

type 'm command =
  | Send of Pid.t * 'm
  | Broadcast of 'm
  | Set_timer of { delay : int; tag : int }
  | Halt

type ('s, 'm, 'o) node = {
  init : n:int -> self:Pid.t -> 's * 'm command list;
  on_message :
    n:int -> self:Pid.t -> now:time -> 's -> src:Pid.t -> 'm -> 's * 'm command list * 'o list;
  on_timer :
    n:int -> self:Pid.t -> now:time -> 's -> tag:int -> 's * 'm command list * 'o list;
}

type ('s, 'o) result = {
  n : int;
  pattern : Pattern.t;
  model : Link.t;
  outputs : (time * Pid.t * 'o) list;
  final_states : 's Pid.Map.t;
  halted : (time * Pid.t) list;
  events_processed : int;
  messages_delivered : int;
  end_time : time;
}

type 'm pending = Message of { src : Pid.t; dst : Pid.t; payload : 'm } | Timer of { pid : Pid.t; tag : int }

let run ?(until = fun _ -> false) ?(retain_outputs = true)
    ?(sink = Rlfd_obs.Trace.null) ?(partitions = []) ~n ~pattern ~model ~seed
    ~horizon node =
  if Pattern.n pattern <> n then invalid_arg "Netsim.run: pattern size mismatch";
  let idx p = Pid.to_int p - 1 in
  let tracing = not (Rlfd_obs.Trace.is_null sink) in
  let temit e = if tracing then Rlfd_obs.Trace.emit sink e in
  let rng = Rng.derive ~seed ~salts:[ 0x4E ] in
  let queue : 'm pending Pqueue.t = Pqueue.create () in
  let states = Array.make n None in
  let halted = Array.make n false in
  let crash_noted = Array.make n false in
  let halts = ref [] in
  let outputs = ref [] in
  let processed = ref 0 and delivered = ref 0 in
  let crashed p now = Pattern.is_crashed pattern p (Time.of_int (Stdlib.min now (1 lsl 29))) in
  let note_crash p now =
    if not crash_noted.(idx p) then begin
      crash_noted.(idx p) <- true;
      let at =
        match Pattern.crash_time pattern p with
        | Some t -> Time.to_int t
        | None -> now
      in
      temit (Rlfd_obs.Trace.Crash { time = at; pid = Pid.to_int p })
    end
  in
  let post src dst payload now =
    if partitions <> [] && Partition.separated partitions src dst ~at:now then begin
      (* the cut is judged at send time, before the link even samples:
         partition drops consume no randomness, so a partitioned run's
         surviving traffic keeps its delays deterministic *)
      temit (Rlfd_obs.Trace.Drop { time = now; src = Pid.to_int src; dst = Pid.to_int dst })
    end
    else
    match Link.transmit model rng ~now with
    | None ->
      (* dropped by a lossy link *)
      temit (Rlfd_obs.Trace.Drop { time = now; src = Pid.to_int src; dst = Pid.to_int dst })
    | Some delay ->
      temit (Rlfd_obs.Trace.Send { time = now; src = Pid.to_int src; dst = Pid.to_int dst });
      Pqueue.add queue ~prio:(now + delay) (Message { src; dst; payload })
  in
  let apply_commands self now commands =
    List.iter
      (fun command ->
        match command with
        | Send (dst, payload) -> post self dst payload now
        | Broadcast payload ->
          List.iter
            (fun dst -> if not (Pid.equal dst self) then post self dst payload now)
            (Pid.all ~n)
        | Set_timer { delay; tag } ->
          let fires_at = now + Stdlib.max 1 delay in
          temit
            (Rlfd_obs.Trace.Timer_set
               { time = now; pid = Pid.to_int self; tag; fires_at });
          Pqueue.add queue ~prio:fires_at (Timer { pid = self; tag })
        | Halt ->
          if not halted.(idx self) then begin
            halted.(idx self) <- true;
            temit (Rlfd_obs.Trace.Halt { time = now; pid = Pid.to_int self });
            halts := (now, self) :: !halts
          end)
      commands
  in
  (* Initialise every node at time 0. *)
  List.iter
    (fun p ->
      let st, commands = node.init ~n ~self:p in
      states.(idx p) <- Some st;
      apply_commands p 0 commands)
    (Pid.all ~n);
  let now = ref 0 in
  let stop = ref false in
  while (not !stop) && not (Pqueue.is_empty queue) do
    match Pqueue.pop queue with
    | None -> stop := true
    | Some (t, pending) ->
      if t > horizon then stop := true
      else begin
        now := t;
        let dispatch pid handler =
          if crashed pid t then note_crash pid t
          else if not halted.(idx pid) then begin
            match states.(idx pid) with
            | None -> ()
            | Some st ->
              let st, commands, outs = handler st in
              states.(idx pid) <- Some st;
              apply_commands pid t commands;
              if retain_outputs then
                List.iter (fun o -> outputs := (t, pid, o) :: !outputs) outs;
              incr processed;
              if outs <> [] && until !outputs then stop := true
          end
        in
        match pending with
        | Message { src; dst; payload } ->
          incr delivered;
          temit
            (Rlfd_obs.Trace.Deliver
               { time = t; src = Pid.to_int src; dst = Pid.to_int dst });
          dispatch dst (fun st -> node.on_message ~n ~self:dst ~now:t st ~src payload)
        | Timer { pid; tag } ->
          temit
            (Rlfd_obs.Trace.Timer_fire { time = t; pid = Pid.to_int pid; tag });
          dispatch pid (fun st -> node.on_timer ~n ~self:pid ~now:t st ~tag)
      end
  done;
  let final_states =
    List.fold_left
      (fun acc p ->
        match states.(idx p) with None -> acc | Some st -> Pid.Map.add p st acc)
      Pid.Map.empty (Pid.all ~n)
  in
  {
    n;
    pattern;
    model;
    outputs = List.rev !outputs;
    final_states;
    halted = List.rev !halts;
    events_processed = !processed;
    messages_delivered = !delivered;
    end_time = !now;
  }

let outputs_of r pid =
  List.filter_map
    (fun (t, p, o) -> if Pid.equal p pid then Some (t, o) else None)
    r.outputs

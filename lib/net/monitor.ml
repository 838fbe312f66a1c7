open Rlfd_kernel

type 'p t = {
  last_heard : int Pid.Map.t; (* watched peers only *)
  direct : Pid.Set.t; (* watched peers currently overdue *)
  adaptive : Adaptive.t;
  view : Dissem.t;
  gossip : bool; (* piggyback and flood the view *)
  neighbours : Pid.t list; (* flood fan-out; [] when not gossiping *)
  protocol : 'p;
}

let create ~topology ~n ~self ~period ~timeout ~backoff protocol =
  let gossip = Topology.needs_dissemination topology in
  {
    last_heard =
      List.fold_left
        (fun m p -> Pid.Map.add p 0 m)
        Pid.Map.empty
        (Topology.watches topology ~n self);
    direct = Pid.Set.empty;
    adaptive = Adaptive.create ~initial:timeout ~backoff;
    view = Dissem.create ~retention:(4 * (period + timeout));
    gossip;
    neighbours = (if gossip then Topology.neighbours topology ~n self else []);
    protocol;
  }

let protocol m = m.protocol

let with_protocol m protocol = { m with protocol }

let suspected m = Dissem.suspected m.view

let direct m = m.direct

let late m ~now q last = now - last > Adaptive.timeout m.adaptive q

let overdue m ~now =
  Pid.Map.fold
    (fun q last acc -> if late m ~now q last then Pid.Set.add q acc else acc)
    m.last_heard Pid.Set.empty

let news m ~now = if m.gossip then Dissem.payload m.view ~now else []

let flood m ~now ~update =
  if not m.gossip then []
  else
    let msg = update (Dissem.payload m.view ~now) in
    List.map (fun p -> Netsim.Send (p, msg)) m.neighbours

let merge m ~self ~now news ~update =
  let view, changed = Dissem.merge m.view ~self ~now news in
  if not changed then (m, [])
  else
    let m = { m with view } in
    (m, flood m ~now ~update)

(* Only a direct monitor refutes: hearing from a suspect is first-hand
   evidence it is alive, stamped fresher than any gossip in flight.  The
   peer leaves [direct] whenever its deadline or its timeout moves, which
   keeps [direct] inside the overdue set. *)
let alive m ~self ~now src news ~update =
  if not (Pid.Map.mem src m.last_heard) then merge m ~self ~now news ~update
  else begin
    let refute = Pid.Set.mem src (Dissem.suspected m.view) in
    let view = if refute then Dissem.note m.view ~subject:src ~on:false ~now else m.view in
    let view, merged = Dissem.merge view ~self ~now news in
    let m =
      {
        m with
        last_heard = Pid.Map.add src now m.last_heard;
        direct = Pid.Set.remove src m.direct;
        adaptive =
          (if Pid.Set.mem src m.direct then Adaptive.bump m.adaptive src
           else m.adaptive);
        view;
      }
    in
    (m, if refute || merged then flood m ~now ~update else [])
  end

let sweep m ~now =
  Pid.Map.fold
    (fun q last (m, added) ->
      if late m ~now q last && not (Pid.Set.mem q m.direct) then
        ( {
            m with
            direct = Pid.Set.add q m.direct;
            view = Dissem.note m.view ~subject:q ~on:true ~now;
          },
          true )
      else (m, added))
    m.last_heard (m, false)

let node ?(sink = Rlfd_obs.Trace.null) ~init ~on_message ~on_timer () =
  let flipped ~self ~now on subject =
    if not (Rlfd_obs.Trace.is_null sink) then
      Rlfd_obs.Trace.(
        emit sink
          (Suspect
             { time = now; observer = Pid.to_int self; subject = Pid.to_int subject; on }))
  in
  let output ~self ~now old m =
    let suspects = suspected m in
    (* physically equal whenever the event left the view's suspects alone *)
    if old == suspects || Pid.Set.equal old suspects then []
    else begin
      Pid.Set.iter (flipped ~self ~now true) (Pid.Set.diff suspects old);
      Pid.Set.iter (flipped ~self ~now false) (Pid.Set.diff old suspects);
      [ suspects ]
    end
  in
  {
    Netsim.init;
    on_message =
      (fun ~n ~self ~now m ~src msg ->
        let m', commands = on_message ~n ~self ~now m ~src msg in
        (m', commands, output ~self ~now (suspected m) m'));
    on_timer =
      (fun ~n ~self ~now m ~tag ->
        let m', commands = on_timer ~n ~self ~now m ~tag in
        (m', commands, output ~self ~now (suspected m) m'));
  }

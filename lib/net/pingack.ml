open Rlfd_kernel

type params = { period : int; timeout : int; retries : int }

type msg =
  | Ping of { round : int; news : Dissem.payload }
  | Pong of { round : int; news : Dissem.payload }
  | Update of Dissem.payload

type rounds = {
  watched : Pid.t list;
  round : int;
  attempts : int; (* re-pings already sent this round *)
  responded : Pid.Set.t; (* pongs seen this round *)
}

type state = rounds Monitor.t

let tick_tag = 0
let attempt_tag = 1

let update payload = Update payload

let node ?sink ?backoff ?(topology = Topology.All_to_all)
    { period; timeout; retries } =
  if period < 1 then invalid_arg "Pingack.node: period must be >= 1";
  if retries < 0 then invalid_arg "Pingack.node: retries must be >= 0";
  let attempt_gap = Stdlib.max 1 (period / (retries + 1)) in
  let pings ~round ~news peers =
    let ping = Ping { round; news } in
    List.map (fun p -> Netsim.Send (p, ping)) peers
  in
  let tick = Netsim.Set_timer { delay = period; tag = tick_tag } in
  let attempt = Netsim.Set_timer { delay = attempt_gap; tag = attempt_tag } in
  let timers watched = tick :: (if retries > 0 && watched <> [] then [ attempt ] else []) in
  let init ~n ~self =
    let watched = Topology.watches topology ~n self in
    let m =
      Monitor.create ~topology ~n ~self ~period ~timeout ~backoff
        { watched; round = 0; attempts = 0; responded = Pid.Set.empty }
    in
    (m, pings ~round:0 ~news:[] watched @ timers watched)
  in
  let on_message ~n:_ ~self ~now m ~src = function
    | Ping { round; news } ->
      (* always answer: being monitored needs no state of our own *)
      let m, floods = Monitor.merge m ~self ~now news ~update in
      (m, Netsim.Send (src, Pong { round; news = Monitor.news m ~now }) :: floods)
    | Pong { round; news } ->
      (* a pong is proof of life even when stale: it refreshes the deadline *)
      let r = Monitor.protocol m in
      let m =
        if round = r.round then
          Monitor.with_protocol m { r with responded = Pid.Set.add src r.responded }
        else m
      in
      Monitor.alive m ~self ~now src news ~update
    | Update news -> Monitor.merge m ~self ~now news ~update
  in
  let on_timer ~n:_ ~self:_ ~now m ~tag =
    let r = Monitor.protocol m in
    if tag = attempt_tag then begin
      (* re-solicit the peers that have not answered this round *)
      let silent = List.filter (fun p -> not (Pid.Set.mem p r.responded)) r.watched in
      let attempts = r.attempts + 1 in
      ( Monitor.with_protocol m { r with attempts },
        pings ~round:r.round ~news:(Monitor.news m ~now) silent
        @ if attempts < retries then [ attempt ] else [] )
    end
    else begin
      (* new round: judge deadlines, then solicit afresh *)
      let swept, _ = Monitor.sweep m ~now in
      let changed = not (Pid.Set.equal (Monitor.suspected swept) (Monitor.suspected m)) in
      let round = r.round + 1 in
      let m =
        Monitor.with_protocol swept
          { r with round; attempts = 0; responded = Pid.Set.empty }
      in
      ( m,
        pings ~round ~news:(Monitor.news m ~now) r.watched
        @ (if changed then Monitor.flood m ~now ~update else [])
        @ timers r.watched )
    end
  in
  Monitor.node ?sink ~init ~on_message ~on_timer ()

let perfect_timeout model ~period =
  match Link.bounded_from_start model with
  | Some delta -> Some ((2 * delta) + period + 1)
  | None -> None

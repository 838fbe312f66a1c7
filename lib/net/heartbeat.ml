open Rlfd_kernel

type style =
  | Fixed of { period : int; timeout : int }
  | Adaptive of { period : int; initial_timeout : int; backoff : int }

let pp_style ppf = function
  | Fixed { period; timeout } -> Format.fprintf ppf "fixed(period=%d,timeout=%d)" period timeout
  | Adaptive { period; initial_timeout; backoff } ->
    Format.fprintf ppf "adaptive(period=%d,timeout0=%d,backoff=%d)" period
      initial_timeout backoff

type msg = Beat of Dissem.payload | Update of Dissem.payload

(* The protocol's own state is who to beat: this node's watchers. *)
type state = Pid.t list Monitor.t

let tick_tag = 0

let params = function
  | Fixed { period; timeout } -> (period, timeout, None)
  | Adaptive { period; initial_timeout; backoff } -> (period, initial_timeout, Some backoff)

let update payload = Update payload

let node ?sink ?(topology = Topology.All_to_all) style =
  let period, timeout, backoff = params style in
  (* under all-to-all every node watches every other and nothing is
     gossiped, so one Broadcast makes the same posts in the same order *)
  let broadcast = not (Topology.needs_dissemination topology) in
  let tick = Netsim.Set_timer { delay = period; tag = tick_tag } in
  let beats m ~now =
    if broadcast then [ Netsim.Broadcast (Beat []) ]
    else
      let beat = Beat (Monitor.news m ~now) in
      List.map (fun p -> Netsim.Send (p, beat)) (Monitor.protocol m)
  in
  let init ~n ~self =
    let m =
      Monitor.create ~topology ~n ~self ~period ~timeout ~backoff
        (Topology.watchers topology ~n self)
    in
    (m, beats m ~now:0 @ [ tick ])
  in
  let on_message ~n:_ ~self ~now m ~src = function
    | Beat news -> Monitor.alive m ~self ~now src news ~update
    | Update news -> Monitor.merge m ~self ~now news ~update
  in
  let on_timer ~n:_ ~self:_ ~now m ~tag:_ =
    let m, added = Monitor.sweep m ~now in
    (m, beats m ~now @ (if added then Monitor.flood m ~now ~update else []) @ [ tick ])
  in
  Monitor.node ?sink ~init ~on_message ~on_timer ()

let perfect_timeout model ~period =
  match Link.bounded_from_start model with
  | Some delta -> Some (delta + period + 1)
  | None -> None

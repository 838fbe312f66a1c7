open Rlfd_kernel

type impl = [ `Heartbeat | `Pingack ]

type spec = {
  impl : impl;
  topology : Topology.t;
  period : int;
  timeout : int;
  backoff : int option;
  retries : int;
}

let impl_name = function `Heartbeat -> "heartbeat" | `Pingack -> "pingack"

let impl_of_string = function
  | "heartbeat" | "hb" -> Ok `Heartbeat
  | "pingack" | "ping-ack" | "pa" -> Ok `Pingack
  | s -> Error (Printf.sprintf "unknown detector impl %S (heartbeat|pingack)" s)

let describe spec =
  Format.asprintf "%s/%s period=%d timeout=%d%s%s" (impl_name spec.impl)
    (Topology.name spec.topology) spec.period spec.timeout
    (match spec.backoff with None -> "" | Some b -> Printf.sprintf " backoff=%d" b)
    (match spec.impl with
    | `Pingack -> Printf.sprintf " retries=%d" spec.retries
    | `Heartbeat -> "")

let to_json spec =
  let open Rlfd_obs.Json in
  Obj
    ([ ("impl", String (impl_name spec.impl));
       ("topology", String (Topology.name spec.topology));
       ("period", Int spec.period);
       ("timeout", Int spec.timeout);
       ("adaptive", Bool (spec.backoff <> None)) ]
    @ (match spec.backoff with None -> [] | Some b -> [ ("backoff", Int b) ])
    @
    match spec.impl with
    | `Pingack -> [ ("retries", Int spec.retries) ]
    | `Heartbeat -> [])

module type S = sig
  type state

  type msg

  val node : (state, msg, Pid.Set.t) Netsim.node
end

type detector = (module S)

let instantiate ?sink ~n:_ spec =
  match spec.impl with
  | `Heartbeat ->
    let style =
      match spec.backoff with
      | None -> Heartbeat.Fixed { period = spec.period; timeout = spec.timeout }
      | Some backoff ->
        Heartbeat.Adaptive { period = spec.period; initial_timeout = spec.timeout; backoff }
    in
    (module struct
      type state = Heartbeat.state

      type msg = Heartbeat.msg

      let node = Heartbeat.node ?sink ~topology:spec.topology style
    end : S)
  | `Pingack ->
    let params =
      { Pingack.period = spec.period; timeout = spec.timeout; retries = spec.retries }
    in
    (module struct
      type state = Pingack.state

      type msg = Pingack.msg

      let node = Pingack.node ?sink ?backoff:spec.backoff ~topology:spec.topology params
    end : S)

type simulation = Sim : ('s, Pid.Set.t) Netsim.result -> simulation

let simulate ?until ?retain_outputs ?sink ?partitions ~n ~pattern ~model ~seed
    ~horizon spec =
  let (module D) = instantiate ?sink ~n spec in
  Sim
    (Netsim.run ?until ?retain_outputs ?sink ?partitions ~n ~pattern ~model ~seed
       ~horizon D.node)

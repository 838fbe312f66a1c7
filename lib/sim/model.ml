open Rlfd_kernel

type 'm envelope = { src : Pid.t; dst : Pid.t; payload : 'm }

type ('s, 'm, 'o) effects = {
  state : 's;
  sends : (Pid.t * 'm) list;
  outputs : 'o list;
}

let no_effects state = { state; sends = []; outputs = [] }

let send_all ~n ?but payload =
  Pid.all ~n
  |> List.filter (fun p -> match but with None -> true | Some q -> not (Pid.equal p q))
  |> List.map (fun p -> (p, payload))

type ('s, 'm, 'd, 'o) t = {
  name : string;
  initial : n:int -> Pid.t -> 's;
  step :
    n:int -> self:Pid.t -> 's -> 'm envelope option -> 'd -> ('s, 'm, 'o) effects;
}

let make ~name ~initial ~step = { name; initial; step }

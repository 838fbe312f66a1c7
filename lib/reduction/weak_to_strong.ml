open Rlfd_kernel
open Rlfd_sim

type msg = Gossip of Pid.Set.t

type state = {
  emulated : Pid.Set.t;
  steps : int;
  gossip_every : int;
}

let handle ~n ~self st envelope seen =
  (* merge the local module's raw output, then the gossip rule *)
  let emulated = Pid.Set.union st.emulated seen in
  let emulated =
    match envelope with
    | Some { Model.payload = Gossip s; src; _ } ->
      Pid.Set.remove src (Pid.Set.union emulated s)
    | None -> emulated
  in
  let st' = { st with emulated; steps = st.steps + 1 } in
  let sends =
    if st'.steps mod st.gossip_every = 0 then
      Model.send_all ~n ~but:self (Gossip seen)
    else []
  in
  let outputs = if Pid.Set.equal st.emulated emulated then [] else [ emulated ] in
  { Model.state = st'; sends; outputs }

let automaton ~gossip_every =
  if gossip_every < 1 then
    invalid_arg "Weak_to_strong.automaton: gossip_every must be >= 1";
  Model.make ~name:"weak-to-strong-completeness"
    ~initial:(fun ~n:_ _ -> { emulated = Pid.Set.empty; steps = 0; gossip_every })
    ~step:(fun ~n ~self st envelope seen -> handle ~n ~self st envelope seen)

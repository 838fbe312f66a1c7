open Rlfd_kernel
open Rlfd_sim

type 'v msg = Decided_value of 'v

type 'v state = {
  proposal : 'v;
  below : 'v Pid.Map.t; (* decisions received from lower-index processes *)
  decided : 'v option;
}

let init ~self:_ ~proposal = { proposal; below = Pid.Map.empty; decided = None }

let handle ~n ~self st envelope suspects =
  let st =
    match envelope with
    | Some { Model.payload = Decided_value v; src; _ }
      when Pid.compare src self < 0 ->
      { st with below = Pid.Map.add src v st.below }
    | Some _ | None -> st
  in
  if st.decided <> None then Model.no_effects st
  else begin
    let settled i = Pid.Map.mem i st.below || Pid.Set.mem i suspects in
    if List.for_all settled (Pid.lower_than self) then begin
      let value =
        match Pid.Map.max_binding_opt st.below with
        | Some (_, v) -> v
        | None -> st.proposal
      in
      {
        Model.state = { st with decided = Some value };
        sends = Model.send_all ~n ~but:self (Decided_value value);
        outputs = [ value ];
      }
    end
    else Model.no_effects st
  end

let automaton ~proposals =
  Model.make ~name:"rank-consensus"
    ~initial:(fun ~n:_ self -> init ~self ~proposal:(proposals self))
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

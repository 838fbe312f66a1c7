open Rlfd_kernel
open Rlfd_sim

type 'v msg = Leader_value of 'v

type 'v state = { proposal : 'v; sent : bool; decided : 'v option }

let init ~self:_ ~proposal = { proposal; sent = false; decided = None }

let elected ~n suspects =
  List.find_opt (fun p -> not (Pid.Set.mem p suspects)) (Pid.all ~n)

(* With Marabout, [elected] is the smallest-index *correct* process and never
   changes; a waiting process adopts the value it eventually receives from
   it.  With a realistic detector, [elected] is merely the smallest-index
   process not yet suspected - which is exactly what makes the algorithm
   unsound there (tests exhibit the disagreement). *)
let handle ~n ~self st envelope suspects =
  if st.decided <> None then Model.no_effects st
  else begin
    match envelope with
    | Some { Model.payload = Leader_value v; _ } ->
      { Model.state = { st with decided = Some v }; sends = []; outputs = [ v ] }
    | None -> (
      match elected ~n suspects with
      | Some leader when Pid.equal leader self && not st.sent ->
        {
          Model.state = { st with sent = true; decided = Some st.proposal };
          sends = Model.send_all ~n ~but:self (Leader_value st.proposal);
          outputs = [ st.proposal ];
        }
      | Some _ | None -> Model.no_effects st)
  end

let automaton ~proposals =
  Model.make ~name:"marabout-consensus"
    ~initial:(fun ~n:_ self -> init ~self ~proposal:(proposals self))
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

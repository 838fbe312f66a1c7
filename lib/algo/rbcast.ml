open Rlfd_sim

type 'v msg = Flood of 'v Broadcast.item

type 'v state = {
  to_send : 'v Broadcast.item list;
  seen : 'v Broadcast.item list; (* identities already delivered, newest first *)
}

let known st i = List.exists (Broadcast.same_id i) st.seen

let deliver_and_relay ~n ~self st i =
  {
    Model.state = { st with seen = i :: st.seen };
    sends = Model.send_all ~n ~but:self (Flood i);
    outputs = [ i ];
  }

let handle ~n ~self st envelope =
  match envelope with
  | Some { Model.payload = Flood i; _ } ->
    if known st i then Model.no_effects st else deliver_and_relay ~n ~self st i
  | None -> (
    match st.to_send with
    | [] -> Model.no_effects st
    | i :: rest -> deliver_and_relay ~n ~self { st with to_send = rest } i)

let automaton ~to_broadcast =
  Model.make ~name:"reliable-broadcast"
    ~initial:(fun ~n:_ self -> { to_send = Broadcast.workload to_broadcast self; seen = [] })
    ~step:(fun ~n ~self st envelope _fd -> handle ~n ~self st envelope)

open Rlfd_kernel
open Rlfd_sim

type 'v msg = Relay of 'v Broadcast.item | Ack of 'v Broadcast.item

type 'v pending = { item : 'v Broadcast.item; acks : Pid.Set.t }

type 'v state = {
  to_send : 'v Broadcast.item list;
  pending : 'v pending list;
  seen : 'v Broadcast.item list; (* relayed at least once *)
  done_ : 'v Broadcast.item list; (* delivered, newest first *)
}

let known xs i = List.exists (Broadcast.same_id i) xs

(* First sight of an item: relay it to everyone and ack it (the ack also
   goes to everyone, so each process can complete its own quorum). *)
let absorb ~n ~self st i sends =
  if known st.seen i then (st, sends)
  else
    ( {
        st with
        seen = i :: st.seen;
        pending = { item = i; acks = Pid.Set.singleton self } :: st.pending;
      },
      sends
      @ Model.send_all ~n ~but:self (Relay i)
      @ Model.send_all ~n ~but:self (Ack i) )

let record_ack st i from =
  let bump p = if Broadcast.same_id p.item i then { p with acks = Pid.Set.add from p.acks } else p in
  { st with pending = List.map bump st.pending }

(* Deliver every pending item acknowledged by all unsuspected processes. *)
let try_deliver ~n st suspects =
  let unsuspected =
    Pid.Set.diff (Pid.universe ~n) suspects
  in
  let ready, waiting =
    List.partition (fun p -> Pid.Set.subset unsuspected p.acks) st.pending
  in
  let ready = Broadcast.sort_batch (List.map (fun p -> p.item) ready) in
  ( { st with pending = waiting; done_ = List.rev_append ready st.done_ },
    ready )

let handle ~n ~self st envelope suspects =
  let st, sends =
    match envelope with
    | Some { Model.payload = Relay i; _ } -> absorb ~n ~self st i []
    | Some { Model.payload = Ack i; src; _ } -> (record_ack st i src, [])
    | None -> (
      match st.to_send with
      | [] -> (st, [])
      | i :: rest -> absorb ~n ~self { st with to_send = rest } i [])
  in
  let st, delivered_now = try_deliver ~n st suspects in
  { Model.state = st; sends; outputs = delivered_now }

let automaton ~to_broadcast =
  Model.make ~name:"uniform-reliable-broadcast"
    ~initial:(fun ~n:_ self ->
      { to_send = Broadcast.workload to_broadcast self; pending = []; seen = []; done_ = [] })
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

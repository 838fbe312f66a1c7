open Rlfd_kernel
open Rlfd_sim

type 'v msg = Flood of 'v Broadcast.item

type 'v state = {
  to_send : 'v Broadcast.item list;
  seen : 'v Broadcast.item list; (* relayed (identity known) *)
  held : 'v Broadcast.item list; (* received, waiting for a predecessor *)
  next_seq : int Pid.Map.t; (* per origin, the next deliverable sequence *)
  done_ : 'v Broadcast.item list; (* delivered, newest first *)
}

let pending_count st = List.length st.held

let known st i = List.exists (Broadcast.same_id i) st.seen

let next_for st origin =
  match Pid.Map.find_opt origin st.next_seq with Some s -> s | None -> 0

(* Deliver every held item whose turn has come; repeat until a fixpoint. *)
let rec drain st outputs =
  let deliverable, held =
    List.partition
      (fun (i : _ Broadcast.item) -> i.Broadcast.seq = next_for st i.Broadcast.origin)
      st.held
  in
  match Broadcast.sort_batch deliverable with
  | [] -> ({ st with held }, outputs)
  | ready ->
    let st =
      List.fold_left
        (fun st (i : _ Broadcast.item) ->
          {
            st with
            next_seq = Pid.Map.add i.Broadcast.origin (i.Broadcast.seq + 1) st.next_seq;
            done_ = i :: st.done_;
          })
        { st with held } ready
    in
    drain st (outputs @ ready)

let absorb ~n ~self st i =
  if known st i then Model.no_effects st
  else begin
    let st = { st with seen = i :: st.seen; held = i :: st.held } in
    let st, outputs = drain st [] in
    { Model.state = st; sends = Model.send_all ~n ~but:self (Flood i); outputs }
  end

let handle ~n ~self st envelope =
  match envelope with
  | Some { Model.payload = Flood i; _ } -> absorb ~n ~self st i
  | None -> (
    match st.to_send with
    | [] -> Model.no_effects st
    | i :: rest -> absorb ~n ~self { st with to_send = rest } i)

let automaton ~to_broadcast =
  Model.make ~name:"fifo-broadcast"
    ~initial:(fun ~n:_ self ->
      {
        to_send = Broadcast.workload to_broadcast self;
        seen = [];
        held = [];
        next_seq = Pid.Map.empty;
        done_ = [];
      })
    ~step:(fun ~n ~self st envelope _fd -> handle ~n ~self st envelope)

let fifo_order (r : _ Runner.result) =
  let bad_process p =
    let deliveries = List.map snd (Runner.outputs_of r p) in
    let rec scan expected = function
      | [] -> None
      | (i : _ Broadcast.item) :: rest ->
        let want = match Pid.Map.find_opt i.Broadcast.origin expected with
          | Some s -> s
          | None -> 0
        in
        if i.Broadcast.seq <> want then Some i
        else scan (Pid.Map.add i.Broadcast.origin (want + 1) expected) rest
    in
    scan Pid.Map.empty deliveries
  in
  let offenders =
    List.filter_map
      (fun p -> Option.map (fun i -> (p, i)) (bad_process p))
      (Pid.all ~n:r.Runner.n)
  in
  match offenders with
  | [] -> Rlfd_fd.Classes.Holds
  | (p, i) :: _ ->
    Rlfd_fd.Classes.Violated
      (Format.asprintf "FIFO order: %a delivered %a#%d out of order" Pid.pp p Pid.pp
         i.Broadcast.origin i.Broadcast.seq)

open Rlfd_kernel
open Rlfd_sim

type 'v batch = 'v Broadcast.item list

type 'v msg =
  | Flood of 'v Broadcast.item
  | Cons of int * 'v batch Ct_strong.msg

type 'v state = {
  to_send : 'v Broadcast.item list;
  known : 'v Broadcast.item list;
  done_ : 'v Broadcast.item list; (* delivered, newest first *)
  instance : int; (* current consensus instance, 1-based *)
  cons : 'v batch Ct_strong.state option;
  stash : (int * Pid.t * 'v batch Ct_strong.msg) list; (* future-instance msgs *)
  decided_count : int;
}

let instances_decided st = st.decided_count

let known st i = List.exists (Broadcast.same_id i) st.known

let pending st =
  st.known
  |> List.filter (fun i -> not (List.exists (Broadcast.same_id i) st.done_))
  |> Broadcast.sort_batch

let wrap_sends instance sends =
  List.map (fun (dst, m) -> (dst, Cons (instance, m))) sends

(* Feed one inner consensus message (or a lambda) to the running instance;
   deliver the batch if it decides. *)
let drive ~n ~self st inner suspects sends outputs =
  match st.cons with
  | None -> (st, sends, outputs)
  | Some cons_state ->
    let effects = Ct_strong.handle ~n ~self cons_state inner suspects in
    let st = { st with cons = Some effects.Model.state } in
    let sends = sends @ wrap_sends st.instance effects.Model.sends in
    (match effects.Model.outputs with
    | [] -> (st, sends, outputs)
    | batch :: _ ->
      let fresh =
        batch |> List.filter (fun i -> not (List.exists (Broadcast.same_id i) st.done_))
        |> Broadcast.sort_batch
      in
      let st =
        {
          st with
          done_ = List.rev_append fresh st.done_;
          instance = st.instance + 1;
          cons = None;
          decided_count = st.decided_count + 1;
        }
      in
      (st, sends, outputs @ fresh))

(* Start the next instance when there is something to order or when peers
   already started it; replay stashed messages for it. *)
let rec maybe_start ~n ~self st suspects sends outputs =
  if st.cons <> None then (st, sends, outputs)
  else begin
    let peer_started = List.exists (fun (k, _, _) -> k = st.instance) st.stash in
    let proposal = pending st in
    if proposal = [] && not peer_started then (st, sends, outputs)
    else begin
      let cons = Ct_strong.init ~n ~self ~proposal in
      let replay, stash = List.partition (fun (k, _, _) -> k = st.instance) st.stash in
      let st = { st with cons = Some cons; stash } in
      let st, sends, outputs =
        List.fold_left
          (fun (st, sends, outputs) (_, src, m) ->
            let envelope = Some { Model.src; dst = self; payload = m } in
            drive ~n ~self st envelope suspects sends outputs)
          (st, sends, outputs) replay
      in
      (* The replay may have decided this instance; recursively consider the
         next one. *)
      if st.cons = None then maybe_start ~n ~self st suspects sends outputs
      else (st, sends, outputs)
    end
  end

let absorb ~n ~self st envelope suspects sends outputs =
  match envelope with
  | None -> (st, sends, outputs)
  | Some { Model.payload = Flood i; _ } ->
    if known st i then (st, sends, outputs)
    else
      ( { st with known = i :: st.known },
        sends @ Model.send_all ~n ~but:self (Flood i),
        outputs )
  | Some { Model.payload = Cons (k, m); src; _ } ->
    if k < st.instance then (st, sends, outputs) (* stale instance *)
    else if k > st.instance || st.cons = None then
      ({ st with stash = (k, src, m) :: st.stash }, sends, outputs)
    else
      let envelope = Some { Model.src; dst = self; payload = m } in
      drive ~n ~self st envelope suspects sends outputs

let handle ~n ~self st envelope suspects =
  let st, sends =
    (* Flood one of our own payloads per step. *)
    match st.to_send with
    | [] -> (st, [])
    | i :: rest ->
      ( { st with to_send = rest; known = i :: st.known },
        Model.send_all ~n ~but:self (Flood i) )
  in
  let st, sends, outputs = absorb ~n ~self st envelope suspects sends [] in
  let st, sends, outputs = maybe_start ~n ~self st suspects sends outputs in
  (* Give the running instance a chance to progress on suspicion changes. *)
  let st, sends, outputs = drive ~n ~self st None suspects sends outputs in
  let st, sends, outputs = maybe_start ~n ~self st suspects sends outputs in
  { Model.state = st; sends; outputs }

let automaton ~to_broadcast =
  Model.make ~name:"atomic-broadcast"
    ~initial:(fun ~n:_ self ->
      {
        to_send = Broadcast.workload to_broadcast self;
        known = [];
        done_ = [];
        instance = 1;
        cons = None;
        stash = [];
        decided_count = 0;
      })
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

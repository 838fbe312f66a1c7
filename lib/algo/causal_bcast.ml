open Rlfd_kernel
open Rlfd_sim

type 'v delivery = { item : 'v Broadcast.item; deps : int Pid.Map.t }

type 'v msg = Flood of 'v delivery

type 'v state = {
  to_send : 'v list;
  my_seq : int;
  seen : 'v Broadcast.item list; (* identities relayed *)
  held : 'v delivery list;
  counts : int Pid.Map.t; (* per origin, messages c-delivered *)
  done_ : 'v delivery list; (* newest first *)
}

let count st origin =
  match Pid.Map.find_opt origin st.counts with Some k -> k | None -> 0

let known st i = List.exists (Broadcast.same_id i) st.seen

let deliverable st (d : _ delivery) =
  (* the sender had delivered deps[q] messages of q; we must have too; and
     d must be the next message of its own origin *)
  d.item.Broadcast.seq = count st d.item.Broadcast.origin
  && Pid.Map.for_all
       (fun q k -> if Pid.equal q d.item.Broadcast.origin then true else count st q >= k)
       d.deps

let rec drain st outputs =
  match List.find_opt (deliverable st) st.held with
  | None -> (st, outputs)
  | Some d ->
    let st =
      {
        st with
        held = List.filter (fun d' -> not (Broadcast.same_id d'.item d.item)) st.held;
        counts =
          Pid.Map.add d.item.Broadcast.origin
            (count st d.item.Broadcast.origin + 1)
            st.counts;
        done_ = d :: st.done_;
      }
    in
    drain st (outputs @ [ d ])

let absorb ~n ~self st d =
  if known st d.item then Model.no_effects st
  else begin
    let st = { st with seen = d.item :: st.seen; held = d :: st.held } in
    let st, outputs = drain st [] in
    { Model.state = st; sends = Model.send_all ~n ~but:self (Flood d); outputs }
  end

let handle ~n ~self st envelope =
  match envelope with
  | Some { Model.payload = Flood d; _ } -> absorb ~n ~self st d
  | None -> (
    match st.to_send with
    | [] -> Model.no_effects st
    | data :: rest ->
      (* broadcast the next payload: it depends on everything delivered so
         far, and carries our own next sequence number *)
      let item = Broadcast.item ~origin:self ~seq:st.my_seq data in
      let deps = Pid.Map.add self st.my_seq st.counts in
      let st = { st with to_send = rest; my_seq = st.my_seq + 1 } in
      absorb ~n ~self st { item; deps })

let automaton ~to_broadcast =
  Model.make ~name:"causal-broadcast"
    ~initial:(fun ~n:_ self ->
      {
        to_send = to_broadcast self;
        my_seq = 0;
        seen = [];
        held = [];
        counts = Pid.Map.empty;
        done_ = [];
      })
    ~step:(fun ~n ~self st envelope _fd -> handle ~n ~self st envelope)

let precedes d1 d2 =
  (* d1's broadcast is known to d2's broadcast: d2's carried vector counts
     strictly past d1's sequence number at d1's origin *)
  match Pid.Map.find_opt d1.item.Broadcast.origin d2.deps with
  | Some k -> d1.item.Broadcast.seq < k
  | None -> false

let causal_order (r : _ Runner.result) =
  let bad_process p =
    let deliveries = List.map snd (Runner.outputs_of r p) in
    let rec scan before = function
      | [] -> None
      | d :: rest -> (
        (* every causally preceding message must already be delivered *)
        match
          List.find_opt
            (fun earlier -> precedes d earlier)
            before
        with
        | Some _ -> Some d
        | None -> scan (d :: before) rest)
    in
    scan [] deliveries
  in
  match
    List.filter_map (fun p -> Option.map (fun d -> (p, d)) (bad_process p)) (Pid.all ~n:r.Runner.n)
  with
  | [] -> Rlfd_fd.Classes.Holds
  | (p, d) :: _ ->
    Rlfd_fd.Classes.Violated
      (Format.asprintf "causal order: %a delivered %a#%d before its causal past"
         Pid.pp p Pid.pp d.item.Broadcast.origin d.item.Broadcast.seq)

let causal_agreement (r : _ Runner.result) =
  let correct = Pid.Set.elements (Rlfd_fd.Pattern.correct r.Runner.pattern) in
  let set_of p =
    Broadcast.sort_batch (List.map (fun (_, d) -> d.item) (Runner.outputs_of r p))
  in
  match correct with
  | [] -> Rlfd_fd.Classes.Holds
  | first :: rest -> (
    let reference = set_of first in
    match
      List.find_opt
        (fun q ->
          let mine = set_of q in
          List.length mine <> List.length reference
          || not (List.for_all2 Broadcast.same_id mine reference))
        rest
    with
    | None -> Rlfd_fd.Classes.Holds
    | Some q ->
      Rlfd_fd.Classes.Violated
        (Format.asprintf "causal agreement: %a and %a delivered different sets" Pid.pp
           first Pid.pp q))

open Rlfd_kernel
open Rlfd_sim

module Int_map = Map.Make (Int)

type 'v msg =
  | Estimate of { round : int; est : 'v; ts : int }
  | Propose of { round : int; est : 'v }
  | Ack of { round : int }
  | Nack of { round : int }
  | Decide of { est : 'v }

type reply = R_ack | R_nack

type 'v round_box = {
  estimates : ('v * int) Pid.Map.t; (* sender -> (est, ts) *)
  proposed : 'v option; (* the proposal this coordinator sent, if any *)
  replies : reply Pid.Map.t;
  decide_sent : bool;
}

let empty_box =
  { estimates = Pid.Map.empty; proposed = None; replies = Pid.Map.empty; decide_sent = false }

type 'v state = {
  round : int;
  est : 'v;
  ts : int;
  sent_estimate : int; (* highest round whose estimate we sent *)
  replied : int; (* highest round we acked/nacked *)
  boxes : 'v round_box Int_map.t; (* coordinator bookkeeping, per round *)
  proposals_seen : 'v Int_map.t; (* round -> proposal received *)
  decided : 'v option;
  decide_forwarded : bool;
}

let init ~n:_ ~self:_ ~proposal =
  {
    round = 1;
    est = proposal;
    ts = 0;
    sent_estimate = 0;
    replied = 0;
    boxes = Int_map.empty;
    proposals_seen = Int_map.empty;
    decided = None;
    decide_forwarded = false;
  }

let round_of st = st.round

let majority ~n = (n / 2) + 1

let coordinator ~n r = Pid.of_int (((r - 1) mod n) + 1)

let box st r = match Int_map.find_opt r st.boxes with None -> empty_box | Some b -> b

let set_box st r b = { st with boxes = Int_map.add r b st.boxes }

(* Coordinator duties for round [r]: propose once a majority of estimates is
   in; decide once a majority of replies is in and none is a nack. *)
let coordinator_progress ~n ~self st r sends =
  if not (Pid.equal (coordinator ~n r) self) then (st, sends)
  else begin
    let b = box st r in
    let st, sends, b =
      if b.proposed = None && Pid.Map.cardinal b.estimates >= majority ~n then begin
        let _, (best, _) =
          Pid.Map.fold
            (fun sender (est, ts) (best_key, best_val) ->
              let key = (ts, -Pid.to_int sender) in
              if key > best_key then (key, (est, ts)) else (best_key, best_val))
            b.estimates
            ((min_int, 0), (st.est, -1))
        in
        let b = { b with proposed = Some best } in
        (set_box st r b, sends @ Model.send_all ~n (Propose { round = r; est = best }), b)
      end
      else (st, sends, b)
    in
    match b.proposed with
    | Some est
      when (not b.decide_sent)
           && Pid.Map.cardinal b.replies >= majority ~n
           && Pid.Map.for_all (fun _ reply -> reply = R_ack) b.replies ->
      let b = { b with decide_sent = true } in
      (set_box st r b, sends @ Model.send_all ~n (Decide { est }))
    | Some _ | None -> (st, sends)
  end

(* Participant duties for the current round: send the estimate, then either
   adopt the coordinator's proposal (ack) or move on upon suspicion (nack).
   [nacks] counts this step's consecutive nacks.  n of them cover every
   coordinator, so every process is suspected and, past the finitely many
   proposals already seen, every later round would nack too: the step
   stops there, and the process's next step goes on from the next round. *)
let rec participant_progress ~n ~self suspects ~nacks st sends =
  if st.decided <> None || nacks = n then (st, sends)
  else begin
    let r = st.round in
    let coord = coordinator ~n r in
    let st, sends =
      if st.sent_estimate < r then
        ( { st with sent_estimate = r },
          sends @ [ (coord, Estimate { round = r; est = st.est; ts = st.ts }) ] )
      else (st, sends)
    in
    match Int_map.find_opt r st.proposals_seen with
    | Some est when st.replied < r ->
      let st =
        { st with est; ts = r; replied = r; round = r + 1 }
      in
      participant_progress ~n ~self suspects ~nacks:0 st
        (sends @ [ (coord, Ack { round = r }) ])
    | Some _ | None ->
      if Pid.Set.mem coord suspects && st.replied < r then begin
        let st = { st with replied = r; round = r + 1 } in
        participant_progress ~n ~self suspects ~nacks:(nacks + 1) st
          (sends @ [ (coord, Nack { round = r }) ])
      end
      else (st, sends)
  end

let absorb ~n ~self st (e : _ Model.envelope) sends =
  match e.Model.payload with
  | Estimate { round; est; ts } ->
    let b = box st round in
    let b = { b with estimates = Pid.Map.add e.Model.src (est, ts) b.estimates } in
    coordinator_progress ~n ~self (set_box st round b) round sends
  | Propose { round; est } ->
    ({ st with proposals_seen = Int_map.add round est st.proposals_seen }, sends)
  | Ack { round } ->
    let b = box st round in
    let b = { b with replies = Pid.Map.add e.Model.src R_ack b.replies } in
    coordinator_progress ~n ~self (set_box st round b) round sends
  | Nack { round } ->
    let b = box st round in
    let b = { b with replies = Pid.Map.add e.Model.src R_nack b.replies } in
    coordinator_progress ~n ~self (set_box st round b) round sends
  | Decide { est } ->
    if st.decided = None then
      ( { st with decided = Some est; decide_forwarded = true },
        sends @ Model.send_all ~n ~but:self (Decide { est }) )
    else (st, sends)

let handle ~n ~self st envelope suspects =
  let freshly_decided_from = st.decided in
  let st, sends =
    match envelope with None -> (st, []) | Some e -> absorb ~n ~self st e []
  in
  let st, sends = participant_progress ~n ~self suspects ~nacks:0 st sends in
  let outputs =
    match (freshly_decided_from, st.decided) with
    | None, Some v -> [ v ]
    | _ -> []
  in
  { Model.state = st; sends; outputs }

let automaton ~proposals =
  Model.make ~name:"ct-rotating-coordinator"
    ~initial:(fun ~n self -> init ~n ~self ~proposal:(proposals self))
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

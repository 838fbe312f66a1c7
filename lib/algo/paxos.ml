open Rlfd_kernel
open Rlfd_sim

type 'v msg =
  | Prepare of { ballot : int }
  | Promise of { ballot : int; accepted : (int * 'v) option }
  | Accept of { ballot : int; value : 'v }
  | Accepted of { ballot : int }
  | Nack of { ballot : int } (* a newer ballot exists: retry sooner *)
  | Decide of { value : 'v }

type 'v attempt = {
  ballot : int;
  promises : (int * 'v) option Pid.Map.t; (* sender -> highest accepted *)
  proposed : 'v option; (* the value sent in Accept, once phase 2 started *)
  accepts : Pid.Set.t;
}

type 'v state = {
  proposal : 'v;
  (* acceptor *)
  promised : int;
  accepted : (int * 'v) option;
  (* leader *)
  attempt : 'v attempt option;
  led_ballot : int; (* highest ballot this process has used *)
  idle_steps : int; (* steps since last leader progress *)
  decided : 'v option;
  forwarded : bool;
}

let patience ~n = 6 * n

let init ~n:_ ~self:_ ~proposal =
  {
    proposal;
    promised = 0;
    accepted = None;
    attempt = None;
    led_ballot = 0;
    idle_steps = 0;
    decided = None;
    forwarded = false;
  }

let ballot_of st = st.led_ballot

let majority ~n = (n / 2) + 1

(* ballots of process i are i-1 (mod n): unique per proposer, totally ordered *)
let next_ballot ~n ~self st =
  let base = Stdlib.max st.led_ballot st.promised in
  let k = (base / n) + 1 in
  (k * n) + (Pid.to_int self - 1)

let start_attempt ~n ~self st =
  let ballot = next_ballot ~n ~self st in
  ( { st with
      attempt = Some { ballot; promises = Pid.Map.empty; proposed = None; accepts = Pid.Set.empty };
      led_ballot = ballot;
      idle_steps = 0 },
    Model.send_all ~n (Prepare { ballot }) )

(* Phase transitions for the leader bookkeeping of [ballot]. *)
let leader_progress ~n st =
  match st.attempt with
  | None -> (st, [])
  | Some a -> (
    match a.proposed with
    | None ->
      if Pid.Map.cardinal a.promises >= majority ~n then begin
        (* adopt the value accepted at the highest ballot, else our own *)
        let value =
          Pid.Map.fold
            (fun _ acc best ->
              match (acc, best) with
              | Some (b, v), Some (b', _) when b > b' -> Some (b, v)
              | Some (b, v), None -> Some (b, v)
              | _, best -> best)
            a.promises None
          |> function Some (_, v) -> v | None -> st.proposal
        in
        let a = { a with proposed = Some value } in
        ( { st with attempt = Some a; idle_steps = 0 },
          Model.send_all ~n (Accept { ballot = a.ballot; value }) )
      end
      else (st, [])
    | Some value ->
      if Pid.Set.cardinal a.accepts >= majority ~n then
        ({ st with attempt = None; idle_steps = 0 }, Model.send_all ~n (Decide { value }))
      else (st, []))

let absorb ~n ~self st (e : _ Model.envelope) =
  let src = e.Model.src in
  match e.Model.payload with
  | Prepare { ballot } ->
    if ballot > st.promised then
      ( { st with promised = ballot },
        [ (src, Promise { ballot; accepted = st.accepted }) ] )
    else ([ (src, Nack { ballot }) ] |> fun sends -> (st, sends))
  | Promise { ballot; accepted } -> (
    match st.attempt with
    | Some a when a.ballot = ballot ->
      let a = { a with promises = Pid.Map.add src accepted a.promises } in
      leader_progress ~n { st with attempt = Some a }
    | Some _ | None -> (st, []))
  | Accept { ballot; value } ->
    if ballot >= st.promised then
      ( { st with promised = ballot; accepted = Some (ballot, value) },
        [ (src, Accepted { ballot }) ] )
    else ([ (src, Nack { ballot }) ] |> fun sends -> (st, sends))
  | Accepted { ballot } -> (
    match st.attempt with
    | Some a when a.ballot = ballot ->
      let a = { a with accepts = Pid.Set.add src a.accepts } in
      leader_progress ~n { st with attempt = Some a }
    | Some _ | None -> (st, []))
  | Nack { ballot } -> (
    (* our attempt lost to a newer ballot: abandon it, retry from idle *)
    match st.attempt with
    | Some a when a.ballot = ballot ->
      ({ st with attempt = None; idle_steps = patience ~n }, [])
    | Some _ | None -> (st, []))
  | Decide { value } ->
    if st.decided = None then
      ( { st with decided = Some value; forwarded = true; attempt = None },
        Model.send_all ~n ~but:self (Decide { value }) )
    else (st, [])

let handle ~n ~self st envelope leader =
  if st.decided <> None then begin
    match envelope with
    | Some e ->
      let st, sends = absorb ~n ~self st e in
      { Model.state = st; sends; outputs = [] }
    | None -> Model.no_effects st
  end
  else begin
    let before = st.decided in
    let st, sends = match envelope with None -> (st, []) | Some e -> absorb ~n ~self st e in
    let st, sends =
      if st.decided <> None then (st, sends)
      else if Pid.equal leader self then begin
        match st.attempt with
        | None ->
          let st, more = start_attempt ~n ~self st in
          (st, sends @ more)
        | Some _ ->
          let st = { st with idle_steps = st.idle_steps + 1 } in
          if st.idle_steps > patience ~n then begin
            let st, more = start_attempt ~n ~self st in
            (st, sends @ more)
          end
          else (st, sends)
      end
      else (st, sends)
    in
    let outputs = match (before, st.decided) with None, Some v -> [ v ] | _ -> [] in
    { Model.state = st; sends; outputs }
  end

let automaton ~proposals =
  Model.make ~name:"paxos-omega-consensus"
    ~initial:(fun ~n self -> init ~n ~self ~proposal:(proposals self))
    ~step:(fun ~n ~self st envelope leader -> handle ~n ~self st envelope leader)

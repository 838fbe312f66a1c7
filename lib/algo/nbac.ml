open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim

type vote = Yes | No

let pp_vote ppf = function
  | Yes -> Format.pp_print_string ppf "yes"
  | No -> Format.pp_print_string ppf "no"

type outcome = Commit | Abort

let pp_outcome ppf = function
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"

type msg = Vote of vote | Cons of outcome Ct_strong.msg

type phase =
  | Collecting of (Pid.t * outcome Ct_strong.msg) list (* stashed consensus msgs *)
  | Deciding of outcome Ct_strong.state
  | Done of outcome

type state = {
  vote : vote;
  sent_vote : bool;
  ballots : vote Pid.Map.t; (* own vote included *)
  phase : phase;
}

let decision st = match st.phase with Done o -> Some o | Collecting _ | Deciding _ -> None

let wrap sends = List.map (fun (dst, m) -> (dst, Cons m)) sends

let drive ~n ~self st cons inner suspects sends =
  let effects = Ct_strong.handle ~n ~self cons inner suspects in
  let sends = sends @ wrap effects.Model.sends in
  match effects.Model.outputs with
  | o :: _ -> ({ st with phase = Done o }, sends, [ o ])
  | [] -> ({ st with phase = Deciding effects.Model.state }, sends, [])

let start ~n ~self st stashed proposal suspects sends =
  let st = { st with phase = Deciding (Ct_strong.init ~n ~self ~proposal) } in
  List.fold_left
    (fun (st, sends, outputs) (src, m) ->
      match st.phase with
      | Deciding cons ->
        let st, sends, out =
          drive ~n ~self st cons
            (Some { Model.src; dst = self; payload = m })
            suspects sends
        in
        (st, sends, outputs @ out)
      | Done _ | Collecting _ -> (st, sends, outputs))
    (st, sends, [])
    (List.rev stashed)

(* The commit rule: propose Commit only on a full, unanimous ballot box. *)
let proposal_of ~n ballots =
  let all_in = Pid.Map.cardinal ballots = n in
  let unanimous = Pid.Map.for_all (fun _ v -> v = Yes) ballots in
  if all_in && unanimous then Commit else Abort

let handle ~n ~self st envelope suspects =
  let st, sends =
    if not st.sent_vote then
      ({ st with sent_vote = true }, Model.send_all ~n ~but:self (Vote st.vote))
    else (st, [])
  in
  match st.phase with
  | Done _ -> { Model.state = st; sends; outputs = [] }
  | Deciding cons ->
    let inner =
      match envelope with
      | Some { Model.payload = Cons m; src; _ } ->
        Some { Model.src = src; dst = self; payload = m }
      | Some { Model.payload = Vote _; _ } | None -> None
    in
    let st, sends, outputs = drive ~n ~self st cons inner suspects sends in
    { Model.state = st; sends; outputs }
  | Collecting stashed -> (
    let st, stashed =
      match envelope with
      | Some { Model.payload = Vote v; src; _ } ->
        ({ st with ballots = Pid.Map.add src v st.ballots }, stashed)
      | Some { Model.payload = Cons m; src; _ } -> (st, (src, m) :: stashed)
      | None -> (st, stashed)
    in
    let settled q = Pid.Map.mem q st.ballots || Pid.Set.mem q suspects in
    if List.for_all settled (Pid.all ~n) then begin
      let st, sends, outputs =
        start ~n ~self st stashed (proposal_of ~n st.ballots) suspects sends
      in
      { Model.state = st; sends; outputs }
    end
    else { Model.state = { st with phase = Collecting stashed }; sends; outputs = [] })

let automaton ~votes =
  Model.make ~name:"non-blocking-atomic-commit"
    ~initial:(fun ~n:_ self ->
      {
        vote = votes self;
        sent_vote = false;
        ballots = Pid.Map.singleton self (votes self);
        phase = Collecting [];
      })
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

let check ~votes (r : _ Runner.result) =
  let violatedf fmt = Format.kasprintf (fun s -> Classes.Violated s) fmt in
  let n = r.Runner.n in
  let all_yes = List.for_all (fun p -> votes p = Yes) (Pid.all ~n) in
  let any_crash = not (Pid.Set.is_empty (Pattern.faulty r.Runner.pattern)) in
  let decisions = List.map (fun (_, p, o) -> (p, o)) r.Runner.outputs in
  let commit_validity =
    match List.find_opt (fun (_, o) -> o = Commit) decisions with
    | Some (p, _) when not all_yes ->
      violatedf "commit-validity: %a committed despite a No vote" Pid.pp p
    | Some _ | None -> Classes.Holds
  in
  let abort_validity =
    match List.find_opt (fun (_, o) -> o = Abort) decisions with
    | Some (p, _) when all_yes && not any_crash ->
      violatedf "abort-validity: %a aborted with unanimous Yes and no crash" Pid.pp p
    | Some _ | None -> Classes.Holds
  in
  let termination =
    let missing =
      Pid.Set.filter
        (fun p -> not (List.exists (fun (q, _) -> Pid.equal p q) decisions))
        (Pattern.correct r.Runner.pattern)
    in
    if Pid.Set.is_empty missing then Classes.Holds
    else violatedf "termination: %a undecided" Pid.Set.pp missing
  in
  let agreement =
    match decisions with
    | [] -> Classes.Holds
    | (_, o) :: rest -> (
      match List.find_opt (fun (_, o') -> o' <> o) rest with
      | None -> Classes.Holds
      | Some (p, _) -> violatedf "uniform agreement: %a disagrees" Pid.pp p)
  in
  [
    ("termination", termination);
    ("uniform agreement", agreement);
    ("commit-validity", commit_validity);
    ("abort-validity", abort_validity);
  ]

open Rlfd_kernel
open Rlfd_fd
open Rlfd_net

type config = { period : int; timeout : int }

let default_config = { period = 20; timeout = 55 }

type event =
  | View_installed of { id : int; members : Pid.Set.t }
  | Excluded_self

let pp_event ppf = function
  | View_installed { id; members } ->
    Format.fprintf ppf "view %d installed: %a" id Pid.Set.pp members
  | Excluded_self -> Format.pp_print_string ppf "excluded from the group; halting"

type msg = Beat | New_view of { id : int; members : Pid.Set.t; proposer : Pid.t }

type state = {
  config : config;
  view_id : int;
  members : Pid.Set.t;
  proposer : Pid.t; (* who installed the current view *)
  last_heard : int Pid.Map.t;
  suspects : Pid.Set.t;
}

let current_view st = (st.view_id, st.members)

let tick_tag = 0

let peers st self = Pid.Set.remove self st.members

let refresh_heard st now who = { st with last_heard = Pid.Map.add who now st.last_heard }

let recompute_suspects st ~self ~now =
  let overdue q =
    match Pid.Map.find_opt q st.last_heard with
    | None -> false
    | Some last -> now - last > st.config.timeout
  in
  { st with suspects = Pid.Set.filter overdue (peers st self) }

(* The coordinator of the view, from this member's vantage point: its
   smallest member not currently suspected. *)
let coordinator st self =
  let candidates = Pid.Set.diff st.members st.suspects in
  match Pid.Set.min_elt_opt candidates with
  | Some c -> c
  | None -> self

let beat_everyone st self =
  Pid.Set.elements (peers st self) |> List.map (fun q -> Netsim.Send (q, Beat))

let install st ~self ~now:_ ~id ~members ~proposer =
  let st =
    {
      st with
      view_id = id;
      members;
      proposer;
      suspects = Pid.Set.inter st.suspects members;
      last_heard = Pid.Map.filter (fun q _ -> Pid.Set.mem q members) st.last_heard;
    }
  in
  if Pid.Set.mem self members then (st, [], [ View_installed { id; members } ])
  else (st, [ Netsim.Halt ], [ Excluded_self; View_installed { id; members } ])

(* A coordinator with suspicions installs the next view locally at once and
   broadcasts it; everyone (members or not) hears about it, so partitions
   produced by conflicting proposals reconverge on the smallest proposer. *)
let propose_if_coordinator st ~self ~now =
  if Pid.equal (coordinator st self) self && not (Pid.Set.is_empty st.suspects) then begin
    let id = st.view_id + 1 in
    let members = Pid.Set.diff st.members st.suspects in
    let st, commands, outputs = install st ~self ~now ~id ~members ~proposer:self in
    (st, Netsim.Broadcast (New_view { id; members; proposer = self }) :: commands, outputs)
  end
  else (st, [], [])

let node config =
  let init ~n ~self =
    let members = Pid.universe ~n in
    let last_heard =
      Pid.Set.fold (fun q m -> if Pid.equal q self then m else Pid.Map.add q 0 m) members
        Pid.Map.empty
    in
    ( { config; view_id = 0; members; proposer = Pid.of_int 1; last_heard;
        suspects = Pid.Set.empty },
      [ Netsim.Broadcast Beat; Netsim.Set_timer { delay = config.period; tag = tick_tag } ] )
  in
  let on_message ~n:_ ~self ~now st ~src msg =
    match msg with
    | Beat -> (refresh_heard st now src, [], [])
    | New_view { id; members; proposer } ->
      ignore src;
      let better =
        id > st.view_id
        || (id = st.view_id && id > 0 && Pid.compare proposer st.proposer < 0)
      in
      if better then install st ~self ~now ~id ~members ~proposer
      else (st, [], [])
  in
  let on_timer ~n:_ ~self ~now st ~tag:_ =
    let st = recompute_suspects st ~self ~now in
    let st, propose_commands, outputs = propose_if_coordinator st ~self ~now in
    let commands =
      beat_everyone st self
      @ propose_commands
      @ [ Netsim.Set_timer { delay = st.config.period; tag = tick_tag } ]
    in
    (st, commands, outputs)
  in
  { Netsim.init; on_message; on_timer }

(* ---------- analysis ---------- *)

(* A process is effectively gone at the earliest of: its real crash, and the
   first installation (anywhere) of a view excluding it — the moment the
   group stops treating it as a member.  The fail-stop halt then makes the
   exclusion physically true; [r.halted] records that it really happened. *)
let effective_pattern (r : _ Netsim.result) =
  let n = r.Netsim.n in
  let universe = Pid.universe ~n in
  let first_exclusion =
    List.fold_left
      (fun acc (t, _p, ev) ->
        match ev with
        | Excluded_self -> acc
        | View_installed { members; _ } ->
          Pid.Set.fold
            (fun q acc ->
              if Pid.Map.mem q acc then acc else Pid.Map.add q t acc)
            (Pid.Set.diff universe members)
            acc)
      Pid.Map.empty r.Netsim.outputs
  in
  List.fold_left
    (fun pattern p ->
      let real = Pattern.crash_time pattern p in
      let excluded = Pid.Map.find_opt p first_exclusion in
      match (real, excluded) with
      | _, None -> pattern
      | None, Some t -> Pattern.crash pattern p (Time.of_int t)
      | Some rt, Some t when t < Time.to_int rt -> Pattern.crash pattern p (Time.of_int t)
      | Some _, Some _ -> pattern)
    r.Netsim.pattern (Pid.all ~n)

let emulated_history (r : _ Netsim.result) =
  let n = r.Netsim.n in
  let universe = Pid.universe ~n in
  let recorder = History.Recorder.create ~n ~init:Pid.Set.empty in
  List.iter
    (fun (t, p, ev) ->
      match ev with
      | View_installed { members; _ } ->
        History.Recorder.record recorder p (Time.of_int t) (Pid.Set.diff universe members)
      | Excluded_self -> ())
    r.Netsim.outputs;
  History.Recorder.history recorder

let check_emulates_p (r : _ Netsim.result) =
  let pattern = effective_pattern r in
  let horizon = Time.of_int (Stdlib.max 1 r.Netsim.end_time) in
  let window = Classes.default_window ~horizon in
  let history = emulated_history r in
  Classes.checks_for Classes.Perfect
  |> List.map (fun (name, check) -> (name, check pattern ~horizon ~window history))

let final_views_agree (r : _ Netsim.result) =
  let pattern = effective_pattern r in
  let survivors = Pattern.correct pattern in
  let views =
    Pid.Set.elements survivors
    |> List.filter_map (fun p ->
           match Pid.Map.find_opt p r.Netsim.final_states with
           | None -> None
           | Some st -> Some (p, current_view st))
  in
  match views with
  | [] -> Classes.Holds
  | (p0, (id0, members0)) :: rest -> (
    match
      List.find_opt (fun (_, (id, members)) -> id <> id0 || not (Pid.Set.equal members members0)) rest
    with
    | Some (p, _) ->
      Classes.Violated
        (Format.asprintf "final views differ between %a and %a" Pid.pp p0 Pid.pp p)
    | None ->
      if Pid.Set.equal members0 survivors then Classes.Holds
      else
        Classes.Violated
          (Format.asprintf "final view %a is not the survivor set %a" Pid.Set.pp
             members0 Pid.Set.pp survivors))

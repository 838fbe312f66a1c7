open Rlfd_kernel

type entry = { on : bool; since : int; adopted : int }

type t = {
  view : entry Pid.Map.t; (* absent = never suspected, alive since forever *)
  suspects : Pid.Set.t; (* cached: subjects with a live [on] entry *)
  retention : int;
}

type payload = (Pid.t * bool * int) list

let create ~retention =
  if retention < 1 then invalid_arg "Dissem.create: retention must be >= 1";
  { view = Pid.Map.empty; suspects = Pid.Set.empty; retention }

let suspected t = t.suspects

let set t subject entry =
  {
    t with
    view = Pid.Map.add subject entry t.view;
    suspects =
      (if entry.on then Pid.Set.add subject t.suspects
       else Pid.Set.remove subject t.suspects);
  }

let note t ~subject ~on ~now = set t subject { on; since = now; adopted = now }

(* Strictly-fresher wins; on a tie the refutation wins.  A refutation is
   first-hand proof the subject was alive at [since], a suspicion only the
   absence of proof — and without the tie-break, a monitor that suspects
   and hears a pong within the same instant would strand the suspicion at
   every node its flood already reached. *)
let supersedes t subject ~on ~since =
  match Pid.Map.find_opt subject t.view with
  | None -> true
  | Some e -> since > e.since || (since = e.since && e.on && not on)

let merge t ~self ~now payload =
  List.fold_left
    (fun (t, changed) (subject, on, since) ->
      if Pid.equal subject self then (t, changed)
      else if supersedes t subject ~on ~since then
        (set t subject { on; since; adopted = now }, true)
      else (t, changed))
    (t, false) payload

let payload t ~now =
  Pid.Map.fold
    (fun subject e acc ->
      if e.on || e.adopted > now - t.retention then
        (subject, e.on, e.since) :: acc
      else acc)
    t.view []
  |> List.rev (* Pid.Map.fold is ascending; rev keeps subject order *)

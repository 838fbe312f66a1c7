open Rlfd_kernel
open Rlfd_sim

type violation = { time : Time.t; pid : Pid.t; missing : Pid.Set.t }

let pp_violation ppf v =
  Format.fprintf ppf
    "decision at %a by %a lacks causal messages from alive %a" Time.pp v.time Pid.pp
    v.pid Pid.Set.pp v.missing

let check (r : _ Runner.result) =
  Runner.output_events r
  |> List.filter_map (fun (e : _ Runner.event) ->
         let alive = Rlfd_fd.Pattern.alive_at r.Runner.pattern e.Runner.time in
         let missing = Pid.Set.diff alive e.Runner.heard_from in
         if Pid.Set.is_empty missing then None
         else Some { time = e.Runner.time; pid = e.Runner.pid; missing })

let is_total r = check r = []

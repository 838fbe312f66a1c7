open Rlfd_kernel

type t = {
  initial : int;
  backoff : int option;
  deltas : int Pid.Map.t; (* only peers ever bumped *)
}

let create ~initial ~backoff =
  if initial < 1 then invalid_arg "Adaptive.create: initial must be >= 1";
  (match backoff with
  | Some b when b <= 0 -> invalid_arg "Adaptive.create: backoff must be > 0"
  | _ -> ());
  { initial; backoff; deltas = Pid.Map.empty }

let timeout t p =
  match Pid.Map.find_opt p t.deltas with Some d -> d | None -> t.initial

let bump t p =
  match t.backoff with
  | None -> t
  | Some b -> { t with deltas = Pid.Map.add p (timeout t p + b) t.deltas }

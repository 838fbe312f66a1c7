open Rlfd_kernel

type t = { size : int; crash : Time.t option array }

let make ~n crashes =
  if n < 1 then invalid_arg "Pattern.make: n must be positive";
  let crash = Array.make n None in
  let set (p, t) =
    let i = Pid.to_int p - 1 in
    if i >= n then invalid_arg "Pattern.make: process index exceeds n";
    if crash.(i) <> None then invalid_arg "Pattern.make: duplicate process";
    crash.(i) <- Some t
  in
  List.iter set crashes;
  { size = n; crash }

let failure_free ~n = make ~n []

let n f = f.size

let processes f = Pid.all ~n:f.size

let crash_time f p = f.crash.(Pid.to_int p - 1)

let is_crashed f p t =
  match crash_time f p with None -> false | Some ct -> Time.(ct <= t)

let is_alive f p t = not (is_crashed f p t)

let fold_processes f acc g =
  List.fold_left (fun acc p -> g acc p) acc (processes f)

(* A loop over the crash array, not a fold over [Pid.all]: a detector
   queries this on every step.  It adds the pids in ascending order, as the
   fold does, so the set's tree is the same. *)
let crashed_by f t =
  let crashed = ref Pid.Set.empty in
  for i = 0 to f.size - 1 do
    match f.crash.(i) with
    | Some ct when Time.(ct <= t) -> crashed := Pid.Set.add (Pid.of_int (i + 1)) !crashed
    | Some _ | None -> ()
  done;
  !crashed

let alive_at f t =
  fold_processes f Pid.Set.empty (fun acc p ->
      if is_alive f p t then Pid.Set.add p acc else acc)

let correct f =
  fold_processes f Pid.Set.empty (fun acc p ->
      match crash_time f p with None -> Pid.Set.add p acc | Some _ -> acc)

let faulty f =
  fold_processes f Pid.Set.empty (fun acc p ->
      match crash_time f p with None -> acc | Some _ -> Pid.Set.add p acc)

let num_faulty f = Pid.Set.cardinal (faulty f)

let compare a b =
  match Int.compare a.size b.size with
  | 0 -> Stdlib.compare a.crash b.crash
  | c -> c

let equal a b = compare a b = 0

let pp ppf f =
  let crashes =
    processes f
    |> List.filter_map (fun p ->
           match crash_time f p with
           | None -> None
           | Some t -> Some (Format.asprintf "%a@%d" Pid.pp p (Time.to_int t)))
  in
  Format.fprintf ppf "pattern(n=%d; %s)" f.size
    (if crashes = [] then "failure-free" else String.concat " " crashes)

type prefix = { upto : Time.t; events : (Pid.t * Time.t) list }

let prefix f t =
  let events =
    processes f
    |> List.filter_map (fun p ->
           match crash_time f p with
           | Some ct when Time.(ct <= t) -> Some (p, ct)
           | Some _ | None -> None)
    |> List.sort (fun (p, a) (q, b) ->
           match Time.compare a b with 0 -> Pid.compare p q | c -> c)
  in
  { upto = t; events }

let prefix_equal a b = Time.equal a.upto b.upto && a.events = b.events

let prefix_events p = p.events

let prefix_crashed p = Pid.Set.of_list (List.map fst p.events)

let pp_prefix ppf p =
  let pp_event ppf (pid, t) = Format.fprintf ppf "%a@%d" Pid.pp pid (Time.to_int t) in
  Format.fprintf ppf "F[%d]={%a}" (Time.to_int p.upto)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_event)
    p.events

let divergence_time a b =
  if a.size <> b.size then invalid_arg "Pattern.divergence_time: size mismatch";
  (* F and G first differ at the earliest time that is a crash time in one
     pattern and not (or later) in the other. *)
  let candidate p =
    match (crash_time a p, crash_time b p) with
    | None, None -> None
    | Some t, None | None, Some t -> Some t
    | Some ta, Some tb ->
      if Time.equal ta tb then None else Some (Time.min ta tb)
  in
  processes a
  |> List.filter_map candidate
  |> function
  | [] -> None
  | t :: ts -> Some (List.fold_left Time.min t ts)

let agree_through a b t =
  match divergence_time a b with None -> true | Some d -> Time.(t < d)

let crash f p t =
  let crash = Array.copy f.crash in
  crash.(Pid.to_int p - 1) <- Some t;
  { f with crash }

let truncate_after f t =
  let crash =
    Array.map
      (function Some ct when Time.(ct > t) -> None | ct -> ct)
      f.crash
  in
  { f with crash }

let crash_all_except f ~keep ~at =
  let adjust p =
    if Pid.equal p keep then None
    else
      match crash_time f p with
      | Some ct when Time.(ct < at) -> Some ct
      | Some _ | None -> Some at
  in
  let crash = Array.of_list (List.map adjust (processes f)) in
  { f with crash }

module Family = struct
  type pattern = t

  type t = {
    name : string;
    generate : n:int -> horizon:Time.t -> Rng.t -> pattern;
  }

  let uniform_time rng ~horizon = Time.of_int (Rng.int rng (Time.to_int horizon + 1))

  (* A family that always crashes someone would crash the only process at
     n = 1, leaving the environment (at least one correct process): there
     it yields the failure-free pattern and draws nothing. *)
  let keep_one generate ~n ~horizon rng =
    if n = 1 then failure_free ~n else generate ~n ~horizon rng

  let failure_free = { name = "failure-free"; generate = (fun ~n ~horizon:_ _ -> failure_free ~n) }

  let single_crash =
    let generate ~n ~horizon rng =
      let victim = Pid.of_int (Rng.int_in rng 1 n) in
      make ~n [ (victim, uniform_time rng ~horizon) ]
    in
    { name = "single-crash"; generate = keep_one generate }

  let crash_count ~n ~horizon rng count =
    let victims =
      Rng.shuffle rng (Pid.all ~n) |> List.filteri (fun i _ -> i < count)
    in
    make ~n (List.map (fun p -> (p, uniform_time rng ~horizon)) victims)

  let minority_crashes =
    let generate ~n ~horizon rng =
      let max_f = Stdlib.max 0 (((n + 1) / 2) - 1) in
      crash_count ~n ~horizon rng (Rng.int_in rng 0 max_f)
    in
    { name = "minority-crashes"; generate }

  let majority_crashes =
    let generate ~n ~horizon rng =
      let min_f = (n / 2) + (n mod 2) in
      crash_count ~n ~horizon rng (Rng.int_in rng (Stdlib.min min_f (n - 1)) (n - 1))
    in
    { name = "majority-crashes"; generate }

  let all_but_one =
    let generate ~n ~horizon rng =
      let survivor = Pid.of_int (Rng.int_in rng 1 n) in
      let crashes =
        Pid.all ~n
        |> List.filter (fun p -> not (Pid.equal p survivor))
        |> List.map (fun p -> (p, uniform_time rng ~horizon))
      in
      make ~n crashes
    in
    { name = "all-but-one"; generate }

  let simultaneous =
    let generate ~n ~horizon rng =
      let instant = uniform_time rng ~horizon in
      let count = Rng.int_in rng 1 (n - 1) in
      let victims =
        Rng.shuffle rng (Pid.all ~n) |> List.filteri (fun i _ -> i < count)
      in
      make ~n (List.map (fun p -> (p, instant)) victims)
    in
    { name = "simultaneous"; generate = keep_one generate }

  let cascade =
    let generate ~n ~horizon rng =
      let count = Rng.int_in rng 1 (n - 1) in
      let h = Time.to_int horizon in
      let gap = Stdlib.max 1 (h / count) in
      (* a horizon shorter than [count] ticks has no room for distinct
         instants: the late crashes land on the horizon itself *)
      let crashes =
        List.init count (fun i ->
            (Pid.of_int (i + 1), Time.of_int (Stdlib.min h (gap * (i + 1)))))
      in
      make ~n crashes
    in
    { name = "cascade"; generate = keep_one generate }

  let uniform =
    let generate ~n ~horizon rng =
      let victims = Rng.subset rng ~p:0.5 (Pid.all ~n) in
      (* keep at least one correct process, as the model requires. *)
      let victims = match victims with v when List.length v = n -> List.tl v | v -> v in
      make ~n (List.map (fun p -> (p, uniform_time rng ~horizon)) victims)
    in
    { name = "uniform"; generate }

  let all =
    [ failure_free; single_crash; minority_crashes; majority_crashes;
      all_but_one; simultaneous; cascade; uniform ]

  let generate t ~n ~horizon rng = t.generate ~n ~horizon rng
end

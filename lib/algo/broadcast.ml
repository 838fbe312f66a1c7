open Rlfd_kernel

type 'v item = { origin : Pid.t; seq : int; data : 'v }

let item ~origin ~seq data = { origin; seq; data }

let compare_id a b =
  match Pid.compare a.origin b.origin with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let same_id a b = compare_id a b = 0

let sort_batch items =
  let sorted = List.sort compare_id items in
  let rec dedup = function
    | a :: b :: rest when same_id a b -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let workload payloads p = List.mapi (fun seq data -> item ~origin:p ~seq data) (payloads p)

open Rlfd_kernel

type t = All_to_all | Ring of { k : int } | Hierarchical

let all_to_all = All_to_all

let ring ~k =
  if k < 1 then invalid_arg "Topology.ring: k must be >= 1";
  Ring { k }

let hierarchical = Hierarchical

let equal a b = a = b

let name = function
  | All_to_all -> "all"
  | Ring { k } -> Printf.sprintf "ring%d" k
  | Hierarchical -> "hier"

let of_string s =
  match s with
  | "all" | "all-to-all" -> Ok All_to_all
  | "ring" -> Ok (Ring { k = 2 })
  | "hier" | "hierarchical" -> Ok Hierarchical
  | _ -> (
    let ringed prefix =
      if String.length s > String.length prefix
         && String.sub s 0 (String.length prefix) = prefix
      then
        int_of_string_opt
          (String.sub s (String.length prefix)
             (String.length s - String.length prefix))
      else None
    in
    match (ringed "ring:", ringed "ring") with
    | Some k, _ | None, Some k ->
      if k >= 1 then Ok (Ring { k })
      else Error "ring degree must be >= 1"
    | None, None ->
      Error
        (Printf.sprintf
           "unknown topology %S (expected all, ring[:K], or hier)" s))

(* log2 bits needed so that every pid index fits: the number of s with
   2^s < n. *)
let bits n =
  let rec go s = if 1 lsl s >= n then s else go (s + 1) in
  go 0

let watches t ~n self =
  let i = Pid.to_int self - 1 in
  match t with
  | All_to_all ->
    List.filter (fun p -> not (Pid.equal p self)) (Pid.all ~n)
  | Ring { k } ->
    List.init (Stdlib.min k (n - 1)) (fun j -> ((i + j + 1) mod n) + 1)
    |> List.sort_uniq Stdlib.compare
    |> List.map Pid.of_int
  | Hierarchical ->
    List.init (bits n) (fun s -> i lxor (1 lsl s))
    |> List.filter (fun j -> j < n)
    |> List.sort_uniq Stdlib.compare
    |> List.map (fun j -> Pid.of_int (j + 1))

let watchers t ~n self =
  let i = Pid.to_int self - 1 in
  match t with
  | All_to_all | Hierarchical -> watches t ~n self
  | Ring { k } ->
    List.init (Stdlib.min k (n - 1)) (fun j -> ((i - j - 1 + (n * (k + 1))) mod n) + 1)
    |> List.sort_uniq Stdlib.compare
    |> List.map Pid.of_int

let neighbours t ~n self =
  List.sort_uniq Pid.compare (watches t ~n self @ watchers t ~n self)

let degree t ~n =
  match t with
  | All_to_all -> n - 1
  | Ring { k } -> Stdlib.min k (n - 1)
  | Hierarchical -> bits n

let needs_dissemination = function
  | All_to_all -> false
  | Ring _ | Hierarchical -> true

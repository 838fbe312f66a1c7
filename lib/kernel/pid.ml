type t = int

let of_int i =
  if i < 1 then invalid_arg "Pid.of_int: process indices are 1-based";
  i

let to_int i = i

let compare = Int.compare

let equal = Int.equal

let pp ppf i = Format.fprintf ppf "p%d" i

let to_string i = Format.asprintf "%a" pp i

let all ~n =
  if n < 1 then invalid_arg "Pid.all: n must be positive";
  List.init n (fun i -> i + 1)

let lower_than p = List.init (p - 1) (fun i -> i + 1)

module Set = struct
  include Set.Make (Int)

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         pp)
      (elements s)

  let of_ints is = of_list (List.map of_int is)
end

module Map = Map.Make (Int)

let universe ~n = Set.of_list (all ~n)

type t = int

let zero = 0

let of_int i =
  if i < 0 then invalid_arg "Time.of_int: time is a natural number";
  i

let to_int t = t

let succ t = t + 1

let add t d =
  let r = t + d in
  if r < 0 then invalid_arg "Time.add: negative time";
  r

let compare = Int.compare

let equal = Int.equal

let ( <= ) (a : t) b = Stdlib.( <= ) a b

let ( < ) (a : t) b = Stdlib.( < ) a b

let ( >= ) (a : t) b = Stdlib.( >= ) a b

let ( > ) (a : t) b = Stdlib.( > ) a b

let min = Stdlib.min

let pp ppf t = Format.fprintf ppf "t=%d" t

let range a b = if Stdlib.( > ) a b then [] else List.init (b - a + 1) (fun i -> a + i)

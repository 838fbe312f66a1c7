(* Component [i] is process [i + 1]'s count; components past the end are
   0, so clocks of different lengths compare by value.  Never mutated
   after construction: [tick] copies, and [merge] copies only when neither
   argument already dominates. *)
type t = int array

let imax (a : int) b = if a >= b then a else b

let at vc i = if i < Array.length vc then Array.unsafe_get vc i else 0

let empty = [||]

let get vc p = at vc (Pid.to_int p - 1)

let tick vc p =
  let i = Pid.to_int p - 1 in
  let len = Array.length vc in
  let v = Array.make (imax len (i + 1)) 0 in
  Array.blit vc 0 v 0 len;
  v.(i) <- v.(i) + 1;
  v

let singleton p = tick empty p

let leq a b =
  let rec from i = i >= Array.length a || (a.(i) <= at b i && from (i + 1)) in
  from 0

let merge a b =
  if leq b a then a
  else if leq a b then b
  else Array.init (imax (Array.length a) (Array.length b)) (fun i -> imax (at a i) (at b i))

let equal a b = leq a b && leq b a

let concurrent a b = (not (leq a b)) && not (leq b a)

let support vc =
  let s = ref Pid.Set.empty in
  Array.iteri (fun i k -> if k > 0 then s := Pid.Set.add (Pid.of_int (i + 1)) !s) vc;
  !s

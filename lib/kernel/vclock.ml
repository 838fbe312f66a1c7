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

(* [a] and [b] compared from component [i] on: a loop that allocates
   nothing, since [merge] compares on every received message. *)
let rec leq_from a b i =
  i >= Array.length a || (a.(i) <= at b i && leq_from a b (i + 1))

let leq a b = leq_from a b 0

let merge a b =
  if leq b a then a
  else if leq a b then b
  else begin
    let v = Array.make (imax (Array.length a) (Array.length b)) 0 in
    for i = 0 to Array.length v - 1 do
      v.(i) <- imax (at a i) (at b i)
    done;
    v
  end

let equal a b = leq a b && leq b a

let concurrent a b = (not (leq a b)) && not (leq b a)

let support vc =
  let s = ref Pid.Set.empty in
  Array.iteri (fun i k -> if k > 0 then s := Pid.Set.add (Pid.of_int (i + 1)) !s) vc;
  !s

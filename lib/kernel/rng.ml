(* SplitMix64 with per-stream gammas.  [make]/[derive]/[split] keep the
   historical golden-gamma streams byte-for-byte; [of_path] derives a fresh
   gamma per path segment, so sibling streams differ in increment as well as
   state — the independence the campaign engine's per-job streams rely on. *)
type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finaliser (Steele, Lea, Flood 2014). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let popcount64 z =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical z i) 1L = 1L then incr c
  done;
  !c

(* A usable gamma is odd and has enough bit transitions (Steele et al.,
   section 4): weak gammas make successive states too regular. *)
let mix_gamma z =
  let g = Int64.logor (mix64 z) 1L in
  let transitions = popcount64 (Int64.logxor g (Int64.shift_right_logical g 1)) in
  if transitions >= 24 then g else Int64.logxor g 0xAAAAAAAAAAAAAAAAL

let make seed = { state = mix64 (Int64.of_int seed); gamma = golden_gamma }

let bits64 g =
  g.state <- Int64.add g.state g.gamma;
  mix64 g.state

let split g salt =
  let s = mix64 (Int64.add g.state (mix64 (Int64.of_int salt))) in
  { state = s; gamma = g.gamma }

let derive ~seed ~salts = List.fold_left split (make seed) salts

let of_path ~seed path =
  List.fold_left
    (fun g i ->
      let salt = mix64 (Int64.of_int i) in
      {
        state = mix64 (Int64.add g.state salt);
        gamma = mix_gamma (Int64.add (Int64.logxor g.gamma salt) golden_gamma);
      })
    (make seed) path

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* drop to 62 bits so the value stays non-negative in OCaml's native int *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  v mod bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty interval";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (bits64 g) 1L = 1L

let float g bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  bound *. (v /. 9007199254740992.0)

let exponential g ~mean =
  let u = Stdlib.max 1e-12 (float g 1.0) in
  -.mean *. log u

let pick g = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int g (List.length xs))

let shuffle g xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let subset g ~p xs = List.filter (fun _ -> float g 1.0 < p) xs

type t = int Pid.Map.t

let empty = Pid.Map.empty

let get vc p = match Pid.Map.find_opt p vc with None -> 0 | Some k -> k

let tick vc p = Pid.Map.add p (get vc p + 1) vc

let singleton p = tick empty p

let merge a b = Pid.Map.union (fun _ x y -> Some (Stdlib.max x y)) a b

let leq a b = Pid.Map.for_all (fun p k -> k <= get b p) a

let equal a b = leq a b && leq b a

let concurrent a b = (not (leq a b)) && not (leq b a)

let support vc =
  Pid.Map.fold (fun p k acc -> if k > 0 then Pid.Set.add p acc else acc) vc Pid.Set.empty

open Rlfd_kernel
open Rlfd_fd

(* images.(i) is the 1-based image of p_{i+1}. *)
type perm = int array

let identity ~n = Array.init n (fun i -> i + 1)

let is_identity pi =
  let ok = ref true in
  Array.iteri (fun i img -> if img <> i + 1 then ok := false) pi;
  !ok

let apply pi p = Pid.of_int pi.(Pid.to_int p - 1)

let of_images images =
  let n = List.length images in
  let pi = Array.of_list images in
  let seen = Array.make n false in
  Array.iter
    (fun img ->
      if img < 1 || img > n || seen.(img - 1) then
        invalid_arg "Symmetry.of_images: not a permutation";
      seen.(img - 1) <- true)
    pi;
  pi

let images = Array.to_list

let compose f g =
  if Array.length f <> Array.length g then
    invalid_arg "Symmetry.compose: degree mismatch";
  Array.init (Array.length f) (fun i -> f.(g.(i) - 1))

let inverse pi =
  let inv = Array.make (Array.length pi) 0 in
  Array.iteri (fun i img -> inv.(img - 1) <- i + 1) pi;
  inv

let multiplication group =
  let order = Array.length group in
  let n = if order = 0 then 0 else Array.length group.(0) in
  (* an injective int code of [compose f g], read off without building it *)
  let code f g =
    let c = ref 0 in
    for i = 0 to n - 1 do
      c := (!c * (n + 1)) + f.(g.(i) - 1)
    done;
    !c
  in
  let index = Hashtbl.create order and id = identity ~n in
  Array.iteri (fun k pi -> Hashtbl.replace index (code pi id) k) group;
  let rows = Array.make order [||] in
  fun j k ->
    if Array.length rows.(k) = 0 then
      rows.(k) <-
        Array.map
          (fun f ->
            match Hashtbl.find_opt index (code f group.(k)) with
            | Some c -> c
            | None -> invalid_arg "Symmetry.multiplication: the group is not closed")
          group;
    rows.(k).(j)

(* All permutations of [l], deterministically ordered (identity-compatible
   order first: inserting the head in every position, leftmost first). *)
let rec permutations = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun p ->
        let rec insert acc pre = function
          | [] -> List.rev ((List.rev (x :: pre)) :: acc)
          | y :: post as l ->
            insert (List.rev_append pre (x :: l) :: acc) (y :: pre) post
        in
        insert [] [] p)
      (permutations rest)

let group_cap = 5040

let crash_respecting pattern =
  let n = Pattern.n pattern in
  (* classes of processes with equal crash time, [None] = correct *)
  let classes : (Time.t option * int list ref) list ref = ref [] in
  List.iter
    (fun p ->
      let ct = Pattern.crash_time pattern p in
      match List.assoc_opt ct !classes with
      | Some l -> l := Pid.to_int p :: !l
      | None -> classes := !classes @ [ (ct, ref [ Pid.to_int p ]) ])
    (Pattern.processes pattern);
  let classes = List.map (fun (_, l) -> List.rev !l) !classes in
  let order =
    List.fold_left
      (fun acc c ->
        let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
        acc * fact (List.length c))
      1 classes
  in
  if order > group_cap then [ identity ~n ]
  else begin
    (* cartesian product of per-class permutations, assembled into arrays *)
    let per_class = List.map (fun c -> permutations c) classes in
    let assemble choice =
      let pi = Array.make n 0 in
      List.iter2
        (fun members imgs -> List.iter2 (fun m img -> pi.(m - 1) <- img) members imgs)
        classes choice;
      pi
    in
    let rec product = function
      | [] -> [ [] ]
      | alts :: rest ->
        let tails = product rest in
        List.concat_map (fun a -> List.map (fun t -> a :: t) tails) alts
    in
    let all = List.map assemble (product per_class) in
    (* identity first, then the rest in enumeration order *)
    let id, others = List.partition is_identity all in
    id @ others
  end

let filter_equivariant ~views ~d_rename ~d_equal perms =
  List.filter
    (fun pi ->
      is_identity pi
      ||
      let f = apply pi in
      let rec equivariant (row : _ array) i =
        i >= Array.length row
        || (d_equal row.(pi.(i) - 1) (d_rename f row.(i)) && equivariant row (i + 1))
      in
      Array.for_all (fun row -> equivariant row 0) views)
    perms

type ('s, 'm, 'o) renamer = {
  rename_state : pid:(Pid.t -> Pid.t) -> value:('o -> 'o) -> 's -> 's;
  rename_msg : pid:(Pid.t -> Pid.t) -> value:('o -> 'o) -> 'm -> 'm;
}

let rename_set f s = Pid.Set.map f s

let value_map_of_proposals ~n ~proposals pi =
  let assoc =
    List.filter_map
      (fun p ->
        let v = proposals p and v' = proposals (apply pi p) in
        if v = v' then None else Some (v, v'))
      (Pid.all ~n)
  in
  (* consistency: a value shared by several processes must map uniformly *)
  List.iter
    (fun (v, v') ->
      List.iter
        (fun (w, w') -> if v = w && v' <> w' then
            invalid_arg "Symmetry.value_map_of_proposals: inconsistent proposals")
        assoc)
    assoc;
  fun v -> match List.assoc_opt v assoc with Some v' -> v' | None -> v

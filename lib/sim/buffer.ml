open Rlfd_kernel

type id = int

type 'a t = {
  dst : 'a -> Pid.t;
  mutable next_id : id;
  (* newest-first; pending reverses.  Every scan is linear in the backlog,
     which holds only messages a process can still receive: the step
     [skip]s messages to crashed processes, so it stays in the tens. *)
  mutable items : (id * 'a) list;
}

let create ~dst = { dst; next_id = 0; items = [] }

let skip t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t x =
  let id = skip t in
  t.items <- (id, x) :: t.items;
  id

let remove t id =
  match List.assoc_opt id t.items with
  | None -> None
  | Some x ->
    t.items <- List.filter (fun (i, _) -> i <> id) t.items;
    Some x

let pending t p =
  List.fold_left
    (fun acc (id, x) -> if Pid.equal (t.dst x) p then (id, x) :: acc else acc)
    [] t.items

let iter t f = List.iter (fun (id, x) -> f id x) (List.rev t.items)

open Rlfd_kernel

type id = int

type 'a t = {
  dst : 'a -> Pid.t;
  mutable next_id : id;
  (* [queues.(i)]: the messages to pid [i + 1], newest first, so ids fall
     along a queue.  The array grows to the largest pid addressed.  Every
     queue holds only messages its process can still receive (the step
     [skip]s messages to crashed processes), so it stays short: [pending]
     reverses one queue, and [remove] rebuilds one queue. *)
  mutable queues : (id * 'a) list array;
}

let create ~dst = { dst; next_id = 0; queues = [||] }

let skip t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t x =
  let id = skip t in
  let i = Pid.to_int (t.dst x) - 1 in
  let len = Array.length t.queues in
  if i >= len then begin
    let queues = Array.make (Stdlib.max (i + 1) (2 * len)) [] in
    Array.blit t.queues 0 queues 0 len;
    t.queues <- queues
  end;
  t.queues.(i) <- (id, x) :: t.queues.(i);
  id

(* Whether a newest-first queue holds [id]: it stops at the first smaller
   id, and allocates nothing. *)
let rec holds (id : id) = function
  | [] -> false
  | (i, _) :: rest -> i = id || (i > id && holds id rest)

(* The message [id] of a queue that holds it. *)
let rec message (id : id) = function
  | [] -> raise Not_found
  | (i, x) :: rest -> if i = id then x else message id rest

(* The queue without [id], which it holds: only the newer messages before
   it are copied. *)
let rec without (id : id) = function
  | [] -> []
  | ((i, _) as m) :: rest -> if i = id then rest else m :: without id rest

(* The index of the queue that holds [id], from [i] on; -1 if none. *)
let rec queue_of queues id i =
  if i = Array.length queues then -1
  else if holds id queues.(i) then i
  else queue_of queues id (i + 1)

let remove t id =
  match queue_of t.queues id 0 with
  | -1 -> None
  | i ->
    let q = t.queues.(i) in
    t.queues.(i) <- without id q;
    Some (message id q)

let pending t p =
  let i = Pid.to_int p - 1 in
  if i < Array.length t.queues then List.rev t.queues.(i) else []

let iter t f =
  Array.fold_left (fun acc q -> List.rev_append q acc) [] t.queues
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (id, x) -> f id x)

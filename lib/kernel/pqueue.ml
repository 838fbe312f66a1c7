module Int_map = Map.Make (Int)

(* One non-empty FIFO bucket per distinct pending priority. *)
type 'a t = { mutable buckets : 'a Queue.t Int_map.t; mutable size : int }

let create () = { buckets = Int_map.empty; size = 0 }

let is_empty q = q.size = 0

let length q = q.size

let add q ~prio value =
  (match Int_map.find_opt prio q.buckets with
  | Some bucket -> Queue.add value bucket
  | None ->
    let bucket = Queue.create () in
    Queue.add value bucket;
    q.buckets <- Int_map.add prio bucket q.buckets);
  q.size <- q.size + 1

let pop q =
  match Int_map.min_binding_opt q.buckets with
  | None -> None
  | Some (prio, bucket) ->
    let value = Queue.take bucket in
    if Queue.is_empty bucket then q.buckets <- Int_map.remove prio q.buckets;
    q.size <- q.size - 1;
    Some (prio, value)

(* Hashconsing for the explorer's incremental-fingerprint kernel: each
   distinct component value (a process state, an in-flight message, an
   emitted output) is encoded and fingerprinted exactly once; afterwards
   the explorer manipulates small integer ids and precomputed hashes.

   Identity is structural ([Hashtbl] with polymorphic hashing and
   equality): two values receive the same entry iff they are structurally
   equal, which for the first-order data the simulator traffics in
   coincides with equality of their canonical encodings.  The table owns
   the renaming lanes: entry [k] of [ren] is the entry of the value pushed
   through the [k]-th renaming of the table's symmetry group, and [hs]
   holds those entries' fingerprints, so orbit enumeration costs an array
   index instead of a rebuild-and-marshal.  A new value's whole orbit is
   interned at once, from [order - 1] renamings of the value and the
   group's multiplication table. *)

type 'a group = {
  order : int;
  rename : int -> 'a -> 'a;
  compose : int -> int -> int;
}

type 'a entry = {
  id : int;
  h : int;
  enc : string;
  value : 'a;
  mutable ren : 'a entry array;
  mutable hs : int array;
}

type 'a t = {
  encode : 'a -> string;
  group : 'a group;
  tbl : ('a, 'a entry) Hashtbl.t;
  mutable next : int;
}

let trivial = { order = 1; rename = (fun _ v -> v); compose = (fun _ _ -> 0) }

let create ?(group = trivial) ~encode () =
  if group.order < 1 then invalid_arg "Intern.create: group order < 1";
  { encode; group; tbl = Hashtbl.create 256; next = 0 }

let id e = e.id

let h e = e.h

let enc e = e.enc

let value e = e.value

let ren e k = e.ren.(k)

let hs e = e.hs

let fresh t v =
  let enc = t.encode v in
  let e =
    { id = t.next; h = Hashing.of_string_int enc; enc; value = v; ren = [||]; hs = [||] }
  in
  t.next <- t.next + 1;
  Hashtbl.add t.tbl v e;
  e

(* Every entry's orbit is interned with it, so a value missing from the
   table has no orbit member in it either.  Members w_k = rename k v may
   still coincide (a non-trivial stabilizer): each distinct one gets one
   entry, whose lanes are filled at its first index k, as
   ren w_k j = rename j (rename k v) = w_(compose j k). *)
let intern t v =
  match Hashtbl.find_opt t.tbl v with
  | Some e -> e
  | None ->
    let g = t.group in
    let orbit = Array.make g.order (fresh t v) in
    for k = 1 to g.order - 1 do
      let w = g.rename k v in
      orbit.(k) <-
        (match Hashtbl.find_opt t.tbl w with Some e -> e | None -> fresh t w)
    done;
    Array.iteri
      (fun k e ->
        if Array.length e.ren = 0 then begin
          e.ren <- Array.init g.order (fun j -> orbit.(g.compose j k));
          e.hs <- Array.map (fun m -> m.h) e.ren
        end)
      orbit;
    orbit.(0)

let length t = Hashtbl.length t.tbl

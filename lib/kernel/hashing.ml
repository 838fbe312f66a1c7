(* Native-int (63-bit) hashing: unboxed int arithmetic is an order of
   magnitude cheaper than [Int64] (whose every intermediate allocates),
   and 63 bits of fingerprint keep collision probability irrelevant at
   explorer scales — exactness never rests on the hash anyway (tables
   confirm full keys).  Constants are the SplitMix64 (Steele, Lea, Flood
   2014) / golden-ratio ones truncated to fit OCaml's int.  The two
   mixers are inlined: the explorer's fingerprint pass runs three
   [combine_int]s per symmetry lane on every visited-set probe. *)

let[@inline] mix_int z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* FNV-1a over the bytes in native ints, finalized with mix_int for
   avalanche on short strings. *)
let of_string_int s =
  let h = ref 0x3BF29CE484222325 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code s.[i]) * 0x100000001B3
  done;
  mix_int !h

let[@inline] combine_int acc h = mix_int ((acc * 0x1E3779B97F4A7C15) + h)

module Table = struct
  (* Open addressing, linear probing, no deletion.  Fingerprints are
     native ints, so the probe loop is allocation-free — probes happen per
     explored edge. *)
  type 'a t = {
    mutable hashes : int array;
    mutable keys : string array;
    mutable values : 'a option array;
    mutable used : int;
    mutable mask : int;
    mutable key_bytes : int;
  }

  let create ?(initial = 1024) () =
    let cap =
      let rec pow2 c = if c >= initial then c else pow2 (c * 2) in
      Stdlib.max 8 (pow2 8)
    in
    {
      hashes = Array.make cap 0;
      keys = Array.make cap "";
      values = Array.make cap None;
      used = 0;
      mask = cap - 1;
      key_bytes = 0;
    }

  (* Index of [bytes] if present, else of the empty slot to insert at. *)
  let probe t key bytes =
    let rec go i =
      match t.values.(i) with
      | None -> i
      | Some _ ->
        if t.hashes.(i) = key && String.equal t.keys.(i) bytes then i
        else go ((i + 1) land t.mask)
    in
    go (key land t.mask)

  let grow t =
    let old_hashes = t.hashes and old_keys = t.keys and old_values = t.values in
    let cap = (t.mask + 1) * 2 in
    t.hashes <- Array.make cap 0;
    t.keys <- Array.make cap "";
    t.values <- Array.make cap None;
    t.mask <- cap - 1;
    Array.iteri
      (fun i v ->
        match v with
        | None -> ()
        | Some _ ->
          let j = probe t old_hashes.(i) old_keys.(i) in
          t.hashes.(j) <- old_hashes.(i);
          t.keys.(j) <- old_keys.(i);
          t.values.(j) <- v)
      old_values

  let find t ~key bytes = t.values.(probe t key bytes)

  let set t ~key bytes v =
    if t.used * 8 >= (t.mask + 1) * 7 then grow t;
    let i = probe t key bytes in
    (match t.values.(i) with
    | None ->
      t.hashes.(i) <- key;
      t.keys.(i) <- bytes;
      t.used <- t.used + 1;
      t.key_bytes <- t.key_bytes + String.length bytes
    | Some _ -> ());
    t.values.(i) <- Some v

  let length t = t.used

  let capacity t = t.mask + 1

  let key_bytes t = t.key_bytes
end

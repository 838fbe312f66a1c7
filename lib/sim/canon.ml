(* No_sharing makes the byte string a pure function of the value's
   structure; these values are immutable and acyclic (automaton states,
   message payloads, outputs), so equal construction gives equal bytes. *)
let encode_value v = Marshal.to_string v [ Marshal.No_sharing ]

(* Netstring-style framing: items and sections cannot alias across
   boundaries whatever bytes they contain. *)
let add_item buf s =
  Stdlib.Buffer.add_string buf (string_of_int (String.length s));
  Stdlib.Buffer.add_char buf ':';
  Stdlib.Buffer.add_string buf s

let multiset items =
  let buf = Stdlib.Buffer.create 128 in
  List.iter (add_item buf) (List.sort String.compare items);
  Stdlib.Buffer.contents buf

let assemble ~step_no ~states ~messages ~outputs =
  let buf = Stdlib.Buffer.create 256 in
  Stdlib.Buffer.add_string buf (string_of_int step_no);
  Stdlib.Buffer.add_char buf '#';
  List.iter (add_item buf) states;
  Stdlib.Buffer.add_char buf '|';
  List.iter (add_item buf) (List.sort String.compare messages);
  Stdlib.Buffer.add_char buf '|';
  List.iter (add_item buf) (List.sort String.compare outputs);
  Stdlib.Buffer.contents buf

let schema_version = 1

(* ---------- hex ---------- *)

let hex_encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  let digit d = Char.chr (if d < 10 then Char.code '0' + d else Char.code 'a' + d - 10) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) (digit (c lsr 4));
    Bytes.set out ((2 * i) + 1) (digit (c land 0xF))
  done;
  Bytes.unsafe_to_string out

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "hex string has odd length"
  else
    let value c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok (Bytes.unsafe_to_string out)
      else
        match (value s.[2 * i], value s.[(2 * i) + 1]) with
        | Some hi, Some lo ->
          Bytes.set out i (Char.chr ((hi lsl 4) lor lo));
          go (i + 1)
        | _ -> Error (Printf.sprintf "invalid hex digit at offset %d" (2 * i))
    in
    go 0

(* ---------- artifact types ---------- *)

type kind = Explore | Run

let kind_to_string = function Explore -> "explore" | Run -> "run"

let kind_of_string = function
  | "explore" -> Ok Explore
  | "run" -> Ok Run
  | other -> Error (Printf.sprintf "unknown artifact kind %S" other)

type receive = { src : int; msg : int option; payload : string }

type choice = { at : int option; pid : int; recv : receive option }

type query = { step : int; pid : int; seen : string }

type outcome = {
  violation : string option;
  at_step : int;
  decisions : string;
  final : string;
  outputs : (int * int * string) list;
}

type t = {
  kind : kind;
  scope : Json.t;
  choices : choice list;
  queries : query list;
  outcome : outcome;
}

(* ---------- encoding ---------- *)

let header_json artifact =
  Json.Obj
    [ ("flight", String "rlfd"); ("schema_version", Int schema_version);
      ("kind", String (kind_to_string artifact.kind));
      ("scope", artifact.scope) ]

let choice_json (c : choice) =
  let open Json in
  let base = [ ("rec", String "choice"); ("pid", Int c.pid) ] in
  let base =
    match c.at with None -> base | Some t -> base @ [ ("at", Int t) ]
  in
  let rest =
    match c.recv with
    | None -> [ ("src", Null); ("msg", Null); ("payload", String "") ]
    | Some r ->
      [ ("src", Int r.src);
        ("msg", (match r.msg with Some id -> Int id | None -> Null));
        ("payload", String r.payload) ]
  in
  Obj (base @ rest)

let query_json (q : query) =
  Json.Obj
    [ ("rec", String "query"); ("step", Int q.step); ("pid", Int q.pid);
      ("seen", String q.seen) ]

let outcome_json o =
  let open Json in
  Obj
    [ ("rec", String "outcome");
      ("violation", (match o.violation with Some r -> String r | None -> Null));
      ("at_step", Int o.at_step); ("decisions", String o.decisions);
      ("final", String o.final);
      ("outputs",
       List
         (List.map
            (fun (t, pid, v) -> List [ Int t; Int pid; String v ])
            o.outputs)) ]

let to_lines artifact =
  (Json.to_string (header_json artifact)
  :: List.map (fun c -> Json.to_string (choice_json c)) artifact.choices)
  @ List.map (fun q -> Json.to_string (query_json q)) artifact.queries
  @ [ Json.to_string (outcome_json artifact.outcome) ]

(* ---------- decoding ---------- *)

let ( let* ) r f = Result.bind r f

let int_field name json =
  match Option.bind (Json.member name json) Json.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or invalid field %S" name)

let string_field name json =
  match Option.bind (Json.member name json) Json.to_string_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or invalid field %S" name)

let opt_int_field name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "invalid field %S" name))

let opt_string_field name json =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "invalid field %S" name))

let header_of_json json =
  let* magic = string_field "flight" json in
  if not (String.equal magic "rlfd") then
    Error (Printf.sprintf "not a flight-recorder artifact (magic %S)" magic)
  else
    let* version = int_field "schema_version" json in
    if version <> schema_version then
      Error
        (Printf.sprintf "unsupported artifact schema_version %d (want %d)"
           version schema_version)
    else
      let* kind = Result.bind (string_field "kind" json) kind_of_string in
      let scope = Option.value (Json.member "scope" json) ~default:Json.Null in
      Ok (kind, scope)

let choice_of_json json =
  let* pid = int_field "pid" json in
  let* at = opt_int_field "at" json in
  let* src = opt_int_field "src" json in
  match src with
  | None -> Ok { at; pid; recv = None }
  | Some src ->
    let* msg = opt_int_field "msg" json in
    let* payload = string_field "payload" json in
    Ok { at; pid; recv = Some { src; msg; payload } }

let query_of_json json =
  let* step = int_field "step" json in
  let* pid = int_field "pid" json in
  let* seen = string_field "seen" json in
  Ok { step; pid; seen }

let outcome_of_json json =
  let* violation = opt_string_field "violation" json in
  let* at_step = int_field "at_step" json in
  let* decisions = string_field "decisions" json in
  let* final = string_field "final" json in
  let* outputs =
    match Option.bind (Json.member "outputs" json) Json.to_list_opt with
    | None -> Error "missing or invalid field \"outputs\""
    | Some items ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ t; pid; v ] :: rest -> (
          match (Json.to_int_opt t, Json.to_int_opt pid, Json.to_string_opt v) with
          | Some t, Some pid, Some v -> conv ((t, pid, v) :: acc) rest
          | _ -> Error "malformed output triple")
        | _ -> Error "malformed output triple"
      in
      conv [] items
  in
  Ok { violation; at_step; decisions; final; outputs }

let of_lines lines =
  let lines =
    List.filter (fun l -> String.trim l <> "") lines
  in
  match lines with
  | [] -> Error "empty artifact"
  | header :: body ->
    let* header = Result.bind (Json.of_string header) header_of_json in
    let kind, scope = header in
    let rec go choices queries outcome = function
      | [] -> (
        match outcome with
        | Some outcome ->
          Ok { kind; scope; choices = List.rev choices;
               queries = List.rev queries; outcome }
        | None -> Error "artifact has no outcome record")
      | line :: rest ->
        let* json = Json.of_string line in
        let* tag = string_field "rec" json in
        (match tag with
        | "choice" ->
          let* c = choice_of_json json in
          go (c :: choices) queries outcome rest
        | "query" ->
          let* q = query_of_json json in
          go choices (q :: queries) outcome rest
        | "outcome" ->
          if outcome <> None then Error "duplicate outcome record"
          else
            let* o = outcome_of_json json in
            go choices queries (Some o) rest
        | other -> Error (Printf.sprintf "unknown record tag %S" other))
    in
    go [] [] None body

(* ---------- file IO ---------- *)

let save path artifact =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines artifact))

(* Opening a directory succeeds and reading it fails, so the read is
   guarded too. *)
let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> of_lines (String.split_on_char '\n' text)

open Rlfd_obs

let schema_version = 1

type header = { name : string; seed : int; total : int }

type entry = {
  job : int;
  label : string;
  elapsed_s : float;
  value : Json.t;
}

let header_to_json h =
  Json.Obj
    [ ("campaign", Json.String h.name);
      ("seed", Json.Int h.seed);
      ("jobs", Json.Int h.total);
      ("schema_version", Json.Int schema_version) ]

let header_of_json j =
  match
    ( Option.bind (Json.member "campaign" j) Json.to_string_opt,
      Option.bind (Json.member "seed" j) Json.to_int_opt,
      Option.bind (Json.member "jobs" j) Json.to_int_opt )
  with
  | Some name, Some seed, Some total -> Ok { name; seed; total }
  | _ -> Error "not a campaign checkpoint header"

let entry_to_json e =
  Json.Obj
    [ ("job", Json.Int e.job);
      ("label", Json.String e.label);
      ("elapsed_s", Json.Float e.elapsed_s);
      ("result", e.value) ]

let entry_of_json j =
  match
    ( Option.bind (Json.member "job" j) Json.to_int_opt,
      Option.bind (Json.member "label" j) Json.to_string_opt,
      Json.member "result" j )
  with
  | Some job, Some label, Some value ->
    let elapsed_s =
      Option.value ~default:0.
        (Option.bind (Json.member "elapsed_s" j) Json.to_float_opt)
    in
    Ok { job; label; elapsed_s; value }
  | _ -> Error "not a checkpoint entry"

(* Flush pushes the line to the OS; fsync pushes it to the disk.  Without
   the fsync a kill -9 cannot lose an acknowledged job (the buffer is
   gone), but a power cut or crashed host still can — and the resume
   contract promises completed jobs stay completed. *)
let sync oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let write_line oc json =
  output_string oc (Json.to_string json);
  output_char oc '\n';
  sync oc

let write_header oc h = write_line oc (header_to_json h)

let write_entry oc e = write_line oc (entry_to_json e)

let write_entries oc entries =
  List.iter
    (fun e ->
      output_string oc (Json.to_string (entry_to_json e));
      output_char oc '\n')
    entries;
  sync oc

(* Opening a directory succeeds and reading it fails, so the read is
   guarded too; only the open's error names the path. *)
let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    Error
      (if String.starts_with ~prefix:(path ^ ": ") msg then msg
       else path ^ ": " ^ msg)
  | text -> (
    match String.split_on_char '\n' text with
    | [] | [ "" ] -> Error (path ^ ": empty checkpoint")
    | first :: rest -> (
      match Result.bind (Json.of_string first) header_of_json with
      | Error msg -> Error (Printf.sprintf "%s: line 1: %s" path msg)
      | Ok header ->
        let entries, skipped =
          List.fold_left
            (fun (entries, skipped) line ->
              if String.trim line = "" then (entries, skipped)
              else
                match Result.bind (Json.of_string line) entry_of_json with
                | Ok e -> (e :: entries, skipped)
                | Error _ -> (entries, skipped + 1))
            ([], 0) rest
        in
        Ok (header, List.rev entries, skipped)))

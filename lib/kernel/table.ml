type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: row width mismatch";
  t.rows <- row :: t.rows

let widths t =
  let all = t.columns :: List.rev t.rows in
  let ncols = List.length t.columns in
  let w = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> w.(i) <- Stdlib.max w.(i) (String.length cell)) row
  in
  List.iter measure all;
  w

let pad width s = s ^ String.make (width - String.length s) ' '

let pp ppf t =
  let w = widths t in
  let line row =
    row
    |> List.mapi (fun i cell -> pad w.(i) cell)
    |> String.concat " | "
  in
  let rule =
    Array.to_list w |> List.map (fun n -> String.make n '-') |> String.concat "-+-"
  in
  Format.fprintf ppf "== %s ==@." t.title;
  Format.fprintf ppf "%s@." (line t.columns);
  Format.fprintf ppf "%s@." rule;
  List.iter (fun row -> Format.fprintf ppf "%s@." (line row)) (List.rev t.rows)

let print t =
  pp Format.std_formatter t;
  Format.printf "@."

let cell_int = string_of_int

let cell_float ?(decimals = 2) x = Format.asprintf "%.*f" decimals x

let cell_bool b = if b then "yes" else "no"

let cell_pct x = Format.asprintf "%.1f%%" (100. *. x)

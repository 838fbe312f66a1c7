open Rlfd_kernel
open Rlfd_fd
open Rlfd_net

type config = { period : int; timeout : int }

let default_config = { period = 20; timeout = 55 }

type 'v item = { origin : Pid.t; seq : int; data : 'v }

let same_id a b = Pid.equal a.origin b.origin && a.seq = b.seq

let compare_id a b =
  match Pid.compare a.origin b.origin with 0 -> Int.compare a.seq b.seq | c -> c

type 'v event =
  | Delivered of { view : int; item : 'v item }
  | View_installed of { id : int; members : Pid.Set.t }
  | Excluded_self

let pp_event pp_data ppf = function
  | Delivered { view; item } ->
    Format.fprintf ppf "delivered %a#%d=%a in view %d" Pid.pp item.origin item.seq
      pp_data item.data view
  | View_installed { id; members } ->
    Format.fprintf ppf "view %d installed: %a" id Pid.Set.pp members
  | Excluded_self -> Format.pp_print_string ppf "excluded; halting"

type 'v msg =
  | Beat
  | Data of { view : int; item : 'v item }
  | Prepare of { id : int; members : Pid.Set.t; proposer : Pid.t }
  | Flush of { id : int; proposer : Pid.t; log : 'v item list }
  | Install of { id : int; members : Pid.Set.t; proposer : Pid.t; log : 'v item list }

type 'v phase =
  | Normal
  | Flushing of { id : int; proposer : Pid.t }

type 'v state = {
  config : config;
  view_id : int;
  members : Pid.Set.t;
  proposer : Pid.t;
  phase : 'v phase;
  last_heard : int Pid.Map.t;
  suspects : Pid.Set.t;
  to_send : 'v list;
  my_seq : int;
  view_log : 'v item list; (* items delivered in the current view *)
  flushes : 'v item list Pid.Map.t; (* coordinator: member -> log, for (view_id+1, self) *)
  prepared_id : int; (* highest Prepare we answered *)
}

let current_view st = (st.view_id, st.members)

let tick_tag = 0

let peers st self = Pid.Set.remove self st.members

let union_logs a b =
  List.fold_left (fun acc i -> if List.exists (same_id i) acc then acc else i :: acc) a b

let coordinator st self =
  match Pid.Set.min_elt_opt (Pid.Set.diff st.members st.suspects) with
  | Some c -> c
  | None -> self

let send_members st self payload =
  Pid.Set.elements (peers st self) |> List.map (fun q -> Netsim.Send (q, payload))

(* deliver an item locally (first time in this view) *)
let deliver st item =
  if List.exists (same_id item) st.view_log then (st, [])
  else ({ st with view_log = item :: st.view_log }, [ Delivered { view = st.view_id; item } ])

let install ~self st ~id ~members ~proposer ~log =
  (* first catch up on the closing view's messages we missed *)
  let missing =
    List.filter (fun i -> not (List.exists (same_id i) st.view_log)) log
    |> List.sort compare_id
  in
  let st, catch_up =
    List.fold_left
      (fun (st, outs) item ->
        let st, o = deliver st item in
        (st, outs @ o))
      (st, []) missing
  in
  let st =
    {
      st with
      view_id = id;
      members;
      proposer;
      phase = Normal;
      suspects = Pid.Set.inter st.suspects members;
      last_heard = Pid.Map.filter (fun q _ -> Pid.Set.mem q members) st.last_heard;
      view_log = [];
      flushes = Pid.Map.empty;
      prepared_id = id;
    }
  in
  if Pid.Set.mem self members then
    (st, [], catch_up @ [ View_installed { id; members } ])
  else
    (st, [ Netsim.Halt ], catch_up @ [ Excluded_self; View_installed { id; members } ])

(* Coordinator: once all surviving members flushed, union and install.  The
   Install goes to the whole *old* membership so even the excluded learn
   their fate (and fail-stop). *)
let maybe_complete_flush ~self st =
  match st.phase with
  | Flushing { id; proposer } when Pid.equal proposer self ->
    let expected = Pid.Set.diff st.members st.suspects in
    if Pid.Set.for_all (fun q -> Pid.Map.mem q st.flushes) expected then begin
      let log = Pid.Map.fold (fun _ l acc -> union_logs acc l) st.flushes [] in
      let members = expected in
      let recipients = Pid.Set.remove self st.members in
      let st, halt, outs = install ~self st ~id ~members ~proposer:self ~log in
      let sends =
        Pid.Set.elements recipients
        |> List.map (fun q ->
               Netsim.Send (q, Install { id; members; proposer = self; log }))
      in
      (st, halt @ sends, outs)
    end
    else (st, [], [])
  | Flushing _ | Normal -> (st, [], [])

let node config ~to_send =
  let init ~n ~self =
    let members = Pid.universe ~n in
    let last_heard =
      Pid.Set.fold
        (fun q m -> if Pid.equal q self then m else Pid.Map.add q 0 m)
        members Pid.Map.empty
    in
    ( {
        config;
        view_id = 0;
        members;
        proposer = Pid.of_int 1;
        phase = Normal;
        last_heard;
        suspects = Pid.Set.empty;
        to_send = to_send self;
        my_seq = 0;
        view_log = [];
        flushes = Pid.Map.empty;
        prepared_id = 0;
      },
      [ Netsim.Broadcast Beat; Netsim.Set_timer { delay = config.period; tag = tick_tag } ]
    )
  in
  let on_message ~n:_ ~self ~now st ~src msg =
    match msg with
    | Beat -> ({ st with last_heard = Pid.Map.add src now st.last_heard }, [], [])
    | Data { view; item } ->
      if view = st.view_id && st.phase = Normal then begin
        let st, outs = deliver st item in
        (st, [], outs)
      end
      else (st, [], [])
    | Prepare { id; members = _; proposer } ->
      if id > st.view_id && (id > st.prepared_id ||
          (id = st.prepared_id && (match st.phase with
             | Flushing { proposer = p'; _ } -> Pid.compare proposer p' < 0
             | Normal -> true)))
      then begin
        let st = { st with phase = Flushing { id; proposer }; prepared_id = id } in
        (st, [ Netsim.Send (proposer, Flush { id; proposer; log = st.view_log }) ], [])
      end
      else (st, [], [])
    | Flush { id; proposer; log } ->
      if Pid.equal proposer self && id = st.view_id + 1 then begin
        let st = { st with flushes = Pid.Map.add src log st.flushes } in
        let st, halt, outs = maybe_complete_flush ~self st in
        (st, halt, outs)
      end
      else (st, [], [])
    | Install { id; members; proposer; log } ->
      if id > st.view_id then begin
        let st, halt, outs = install ~self st ~id ~members ~proposer ~log in
        (st, halt, outs)
      end
      else (st, [], [])
  in
  let on_timer ~n:_ ~self ~now st ~tag:_ =
    (* refresh suspicion *)
    let overdue q =
      match Pid.Map.find_opt q st.last_heard with
      | None -> false
      | Some last -> now - last > st.config.timeout
    in
    let st = { st with suspects = Pid.Set.filter overdue (peers st self) } in
    let beats = send_members st self Beat in
    let st, commands, outputs =
      match st.phase with
      | Normal ->
        if
          Pid.equal (coordinator st self) self
          && not (Pid.Set.is_empty (Pid.Set.inter st.suspects st.members))
        then begin
          (* start a view change: prepare, flush own log *)
          let id = st.view_id + 1 in
          let members = Pid.Set.diff st.members st.suspects in
          let st =
            {
              st with
              phase = Flushing { id; proposer = self };
              prepared_id = id;
              flushes = Pid.Map.singleton self st.view_log;
            }
          in
          let st, halt, outs = maybe_complete_flush ~self st in
          ( st,
            halt @ send_members st self (Prepare { id; members; proposer = self }),
            outs )
        end
        else begin
          (* multicast the next application payload *)
          match st.to_send with
          | [] -> (st, [], [])
          | data :: rest ->
            let item = { origin = self; seq = st.my_seq; data } in
            let st = { st with to_send = rest; my_seq = st.my_seq + 1 } in
            let st, outs = deliver st item in
            (st, send_members st self (Data { view = st.view_id; item }), outs)
        end
      | Flushing { id; proposer } ->
        if Pid.equal proposer self then begin
          let st, halt, outs = maybe_complete_flush ~self st in
          (* keep nudging laggards with the Prepare *)
          let members = Pid.Set.diff st.members st.suspects in
          (st, halt @ send_members st self (Prepare { id; members; proposer = self }), outs)
        end
        else (st, [], [])
    in
    ( st,
      beats @ commands @ [ Netsim.Set_timer { delay = st.config.period; tag = tick_tag } ],
      outputs )
  in
  { Netsim.init; on_message; on_timer }

(* ---------- checkers ---------- *)

let deliveries_by_view (r : _ Netsim.result) p =
  List.fold_left
    (fun acc (_, q, ev) ->
      if not (Pid.equal p q) then acc
      else
        match ev with
        | Delivered { view; item } ->
          let existing = match List.assoc_opt view acc with Some l -> l | None -> [] in
          (view, item :: existing) :: List.remove_assoc view acc
        | View_installed _ | Excluded_self -> acc)
    [] r.Netsim.outputs

let installers (r : _ Netsim.result) view =
  List.filter_map
    (fun (_, p, ev) ->
      match ev with
      | View_installed { id; _ } when id = view -> Some p
      | View_installed _ | Delivered _ | Excluded_self -> None)
    r.Netsim.outputs

let max_view (r : _ Netsim.result) =
  List.fold_left
    (fun acc (_, _, ev) ->
      match ev with View_installed { id; _ } -> Stdlib.max acc id | Delivered _ | Excluded_self -> acc)
    0 r.Netsim.outputs

let view_agreement (r : _ Netsim.result) =
  let violation = ref None in
  List.iter
    (fun v ->
      match installers r v with
      | [] | [ _ ] -> ()
      | p0 :: rest ->
        let set_of p =
          match List.assoc_opt (v - 1) (deliveries_by_view r p) with
          | Some items -> List.sort compare_id items
          | None -> []
        in
        let reference = set_of p0 in
        List.iter
          (fun q ->
            let mine = set_of q in
            let equal =
              List.length mine = List.length reference
              && List.for_all2 same_id mine reference
            in
            if (not equal) && !violation = None then
              violation :=
                Some
                  (Format.asprintf
                     "view synchrony: %a and %a closed view %d with different sets"
                     Pid.pp p0 Pid.pp q (v - 1)))
          rest)
    (List.init (max_view r) (fun i -> i + 1));
  match !violation with None -> Classes.Holds | Some msg -> Classes.Violated msg

let delivery_in_sending_view (r : _ Netsim.result) =
  (* each item identity is delivered in one view only, across all processes *)
  let assignments = Hashtbl.create 64 in
  let violation = ref None in
  List.iter
    (fun (_, p, ev) ->
      match ev with
      | Delivered { view; item } -> (
        let key = (Pid.to_int item.origin, item.seq) in
        match Hashtbl.find_opt assignments key with
        | None -> Hashtbl.add assignments key view
        | Some v0 ->
          if v0 <> view && !violation = None then
            violation :=
              Some
                (Format.asprintf "item %a#%d delivered in views %d and %d (seen at %a)"
                   Pid.pp item.origin item.seq v0 view Pid.pp p))
      | View_installed _ | Excluded_self -> ())
    r.Netsim.outputs;
  match !violation with None -> Classes.Holds | Some msg -> Classes.Violated msg

let no_duplicates (r : _ Netsim.result) =
  let bad =
    List.find_opt
      (fun p ->
        let all =
          List.concat_map (fun (_, items) -> items) (deliveries_by_view r p)
        in
        let rec dup = function
          | [] -> false
          | i :: rest -> List.exists (same_id i) rest || dup rest
        in
        dup all)
      (Pid.all ~n:r.Netsim.n)
  in
  match bad with
  | None -> Classes.Holds
  | Some p -> Classes.Violated (Format.asprintf "%a delivered an item twice" Pid.pp p)

let check r =
  [
    ("view agreement", view_agreement r);
    ("delivery in one view", delivery_in_sending_view r);
    ("no duplicates", no_duplicates r);
  ]

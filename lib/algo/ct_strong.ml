open Rlfd_kernel
open Rlfd_sim

module Int_map = Map.Make (Int)

type 'v vector = 'v option Pid.Map.t

type 'v msg =
  | Round of { round : int; delta : 'v vector }
  | Final of { view : 'v vector }

type 'v phase = Rounds of int | Collect_final | Decided of 'v

type 'v state = {
  view : 'v vector;
  delta : 'v vector;
  phase : 'v phase;
  sent_round : int; (* highest round already broadcast, 0 if none *)
  sent_final : bool;
  round_msgs : 'v vector Pid.Map.t Int_map.t; (* round -> sender -> delta *)
  final_msgs : 'v vector Pid.Map.t;
}

let empty_vector ~n =
  List.fold_left (fun m p -> Pid.Map.add p None m) Pid.Map.empty (Pid.all ~n)

let init ~n ~self ~proposal =
  let view = Pid.Map.add self (Some proposal) (empty_vector ~n) in
  {
    view;
    delta = view;
    phase = (if n >= 2 then Rounds 1 else Collect_final);
    sent_round = 0;
    sent_final = false;
    round_msgs = Int_map.empty;
    final_msgs = Pid.Map.empty;
  }

let decision st = match st.phase with Decided v -> Some v | Rounds _ | Collect_final -> None

(* Shape-canonical insertion: the explorer's canonical encoding marshals
   the map's internal tree, whose shape depends on insertion order.
   Message logs grow in arrival order — schedule-dependent — so every
   insertion rebuilds the map by ascending-key folds, making the tree a
   pure function of the binding set.  Two states that received the same
   messages in different orders then encode identically (more dedup), and
   a pid-renamed state byte-matches the twin its renaming names (the
   property the symmetry reduction rests on).  The maps given here are
   canonical already, so two insertions need no rebuild: one that replaces
   a bound key's value keeps the tree's shape, and one above every bound
   key is the last step of the ascending fold. *)
let canonical_add p v m =
  if
    Pid.Map.is_empty m || Pid.Map.mem p m
    || Pid.compare p (fst (Pid.Map.max_binding m)) > 0
  then Pid.Map.add p v m
  else
    Pid.Map.bindings (Pid.Map.add p v m)
    |> List.fold_left (fun acc (k, v) -> Pid.Map.add k v acc) Pid.Map.empty

let canonical_add_int r v m =
  if Int_map.is_empty m || Int_map.mem r m || r > fst (Int_map.max_binding m) then
    Int_map.add r v m
  else
    Int_map.bindings (Int_map.add r v m)
    |> List.fold_left (fun acc (k, v) -> Int_map.add k v acc) Int_map.empty

(* The deltas received for round [r], by sender. *)
let round_deltas r st =
  match Int_map.find r st.round_msgs with m -> m | exception Not_found -> Pid.Map.empty

let record_msg st (e : _ Model.envelope) =
  match e.Model.payload with
  | Round { round; delta } ->
    let per_round = round_deltas round st in
    {
      st with
      round_msgs =
        canonical_add_int round
          (canonical_add e.Model.src delta per_round)
          st.round_msgs;
    }
  | Final { view } ->
    { st with final_msgs = canonical_add e.Model.src view st.final_msgs }

let heard_or_suspected ~received suspects q =
  Pid.Map.mem q received || Pid.Set.mem q suspects

(* Whether every process but [self], from index [i] on, is heard or
   suspected: a loop over i..n that allocates nothing. *)
let rec others_heard ~n ~self ~received suspects i =
  i > n
  || (i = Pid.to_int self || heard_or_suspected ~received suspects (Pid.of_int i))
     && others_heard ~n ~self ~received suspects (i + 1)

(* Merge the deltas received in a completed round: adopt a value for every
   still-unknown component, and remember the newly learned components as the
   next delta.  The delta starts as the view with every value erased: a view
   binds every pid, inserted in ascending order, so that is the tree of
   [empty_vector ~n], built without inserting. *)
let merge_round ~n st msgs =
  let learn (view, delta) p =
    match Pid.Map.find p view with
    | Some _ -> (view, delta)
    | None -> (
      let contributed =
        Pid.Map.fold
          (fun _sender (dv : _ vector) acc ->
            match acc with
            | Some _ -> acc
            | None -> ( match Pid.Map.find p dv with Some v -> Some v | None -> None))
          msgs None
      in
      match contributed with
      | None -> (view, delta)
      | Some v -> (Pid.Map.add p (Some v) view, Pid.Map.add p (Some v) delta))
  in
  List.fold_left learn (st.view, Pid.Map.map (fun _ -> None) st.view) (Pid.all ~n)

(* Pointwise intersection of the final vectors (own view included): a
   component survives only if every collected vector knows it. *)
let intersect ~n own finals =
  let keep p =
    match Pid.Map.find p own with
    | None -> None
    | Some v ->
      let everywhere =
        Pid.Map.for_all (fun _sender (vec : _ vector) -> Pid.Map.find p vec <> None) finals
      in
      if everywhere then Some v else None
  in
  List.fold_left (fun m p -> Pid.Map.add p (keep p) m) Pid.Map.empty (Pid.all ~n)

let first_component ~n vec =
  List.find_map (fun p -> Pid.Map.find p vec) (Pid.all ~n)

(* Drive the state machine until no further progress is possible without new
   input.  Accumulates sends; emits the decision when reached. *)
let rec progress ~n ~self suspects st sends outputs =
  match st.phase with
  | Decided _ -> (st, sends, outputs)
  | Rounds r ->
    let st, sends =
      if st.sent_round < r then
        ( { st with sent_round = r },
          sends @ Model.send_all ~n ~but:self (Round { round = r; delta = st.delta }) )
      else (st, sends)
    in
    let received = round_deltas r st in
    let complete = others_heard ~n ~self ~received suspects 1 in
    if not complete then (st, sends, outputs)
    else begin
      let view, delta = merge_round ~n st received in
      let phase = if r < n - 1 then Rounds (r + 1) else Collect_final in
      progress ~n ~self suspects { st with view; delta; phase } sends outputs
    end
  | Collect_final ->
    let st, sends =
      if not st.sent_final then
        ( { st with sent_final = true },
          sends @ Model.send_all ~n ~but:self (Final { view = st.view }) )
      else (st, sends)
    in
    let complete = others_heard ~n ~self ~received:st.final_msgs suspects 1 in
    if not complete then (st, sends, outputs)
    else begin
      let final_view = intersect ~n st.view st.final_msgs in
      match first_component ~n final_view with
      | None ->
        (* Unreachable with a Strong detector: the never-suspected correct
           process's proposal survives the intersection.  Guard anyway. *)
        (st, sends, outputs)
      | Some v ->
        ({ st with view = final_view; phase = Decided v }, sends, outputs @ [ v ])
    end

let handle ~n ~self st envelope suspects =
  let st = match envelope with None -> st | Some e -> record_msg st e in
  let st, sends, outputs = progress ~n ~self suspects st [] [] in
  { Model.state = st; sends; outputs }

let automaton ~proposals =
  Model.make ~name:"ct-strong-consensus"
    ~initial:(fun ~n self -> init ~n ~self ~proposal:(proposals self))
    ~step:(fun ~n ~self st envelope suspects -> handle ~n ~self st envelope suspects)

(* Push a pid renaming through a knowledge vector: components move with
   their proposer, values through the induced proposal renaming.  Rebuilt
   by ascending-key insertion so the renamed map's tree shape byte-matches
   the twin branch's (see [canonical_add]). *)
let rebuild_sorted bs =
  List.sort (fun (a, _) (b, _) -> Pid.compare a b) bs
  |> List.fold_left (fun acc (k, v) -> Pid.Map.add k v acc) Pid.Map.empty

let rename_vector ~pid ~value (vec : 'v vector) : 'v vector =
  Pid.Map.fold (fun p v acc -> (pid p, Option.map value v) :: acc) vec []
  |> rebuild_sorted

let rename_per_sender ~pid ~value m =
  Pid.Map.fold
    (fun s vec acc -> (pid s, rename_vector ~pid ~value vec) :: acc)
    m []
  |> rebuild_sorted

let renamer =
  {
    Symmetry.rename_state =
      (fun ~pid ~value st ->
        {
          view = rename_vector ~pid ~value st.view;
          delta = rename_vector ~pid ~value st.delta;
          phase =
            (match st.phase with
            | Decided v -> Decided (value v)
            | (Rounds _ | Collect_final) as ph -> ph);
          sent_round = st.sent_round;
          sent_final = st.sent_final;
          round_msgs = Int_map.map (rename_per_sender ~pid ~value) st.round_msgs;
          final_msgs = rename_per_sender ~pid ~value st.final_msgs;
        });
    rename_msg =
      (fun ~pid ~value -> function
        | Round { round; delta } ->
          Round { round; delta = rename_vector ~pid ~value delta }
        | Final { view } -> Final { view = rename_vector ~pid ~value view });
  }

let symmetry ~n ~proposals =
  {
    Explore.renamer;
    value_map = (fun pi -> Symmetry.value_map_of_proposals ~n ~proposals pi);
    d_rename = Symmetry.rename_set;
  }

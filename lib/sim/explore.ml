open Rlfd_kernel
open Rlfd_fd

type 'o outputs = (Pid.t * 'o) list

type 'o violation = {
  at_step : int;
  schedule : (Pid.t * (Pid.t * string) option) list;
      (* (process, sender and canonical payload bytes of the received
         message) per step — what Replay needs to re-resolve the same
         messages; payloads are [""] unless the run captured encodings *)
  outputs : 'o outputs;
  reason : string;
}

type 'o report = {
  nodes_explored : int;
  distinct_states : int;
  deduped : int;
  por_pruned : int;
  lambda_pruned : int;
  orbit_collapsed : int;
  complete : bool;
  deepest : int;
  violations : 'o violation list;
  decision_states : string list;
}

let pp_report ppf r =
  Format.fprintf ppf "explored %d nodes (%s), depth %d, %d violation(s)"
    r.nodes_explored
    (if r.complete then "complete" else "budget exhausted")
    r.deepest (List.length r.violations);
  if r.deduped > 0 || r.por_pruned > 0 || r.lambda_pruned > 0 then
    Format.fprintf ppf " [%d distinct, %d deduped, %d por-pruned, %d lambda-pruned]"
      r.distinct_states r.deduped r.por_pruned r.lambda_pruned;
  if r.orbit_collapsed > 0 then
    Format.fprintf ppf " [%d orbit-collapsed]" r.orbit_collapsed

(* An in-flight message.  [ment] is its interned identity, carrying the
   endpoints and the payload, through which the hot path reaches the
   fingerprint, the id and the canonical bytes without re-serializing the
   payload. *)
type 'm msg = {
  mid : int;
  msrc : Pid.t;
  mdst : Pid.t;
  ment : (Pid.t * Pid.t * 'm) Intern.entry;
}

(* A configuration: the interned state of each process (pid 1 at index
   0), copied on write — branches share nothing mutable — plus, under
   [canon], the incremental fingerprint lanes.  [ls.(k)] / [lm.(k)] are
   the state / live-message hash sums of the configuration as renamed by
   the k-th symmetry-group element (commutative 63-bit sums, so one step
   updates them by subtracting the terms it consumed and adding the terms
   it produced). *)
type ('s, 'm) config = {
  step_no : int;
  s_ents : 's Intern.entry array; (* entries carry the values *)
  buffer : 'm msg list; (* newest first *)
  next_id : int;
  ls : int array; (* [||] unless canon *)
  lm : int array; (* [||] unless canon *)
}

(* A memoized automaton step.  The automata are deterministic and detector
   views are precomputed per (process, tick), so once states, messages and
   views carry interned identities, (process, state id, received-message
   id, view id) determines a step's effects exactly: the step (p, m, d, A)
   of the model is a function of p's state, m and d.  Every walk takes its
   steps through this memo.  Real scopes revisit the same step constantly,
   the naive tree most of all; a hit skips the model call and every
   re-interning of its results. *)
type ('s, 'm, 'o) memo_step = {
  r_ent : 's Intern.entry; (* the successor state (its entry carries the value) *)
  r_sends : (Pid.t * (Pid.t * Pid.t * 'm) Intern.entry) list;
  r_outputs : 'o list;
}

(* The memo store: open addressing over three-int keys (state id,
   received-message id, process x view id), allocation-free on the hit
   path — a generic [Hashtbl] would build a key tuple and traverse it per
   lookup, and this table is consulted once per explored edge.  Slot
   occupancy rides on the first key component (state ids are >= 0, stored
   +1).  No deletion. *)
module Memo = struct
  type 'v t = {
    mutable k1 : int array; (* state id + 1; 0 = empty slot *)
    mutable k2 : int array; (* message id (-1 = lambda step) *)
    mutable k3 : int array; (* process x view id *)
    mutable v : 'v option array;
    mutable used : int;
    mutable mask : int;
  }

  let create () =
    let cap = 1024 in
    {
      k1 = Array.make cap 0;
      k2 = Array.make cap 0;
      k3 = Array.make cap 0;
      v = Array.make cap None;
      used = 0;
      mask = cap - 1;
    }

  let slot t a b c = Hashing.combine_int a (Hashing.combine_int b c) land t.mask

  let find t a b c =
    let a1 = a + 1 in
    let rec go i =
      if t.k1.(i) = 0 then None
      else if t.k1.(i) = a1 && t.k2.(i) = b && t.k3.(i) = c then t.v.(i)
      else go ((i + 1) land t.mask)
    in
    go (slot t a b c)

  let rec grow t =
    let k1 = t.k1 and k2 = t.k2 and k3 = t.k3 and v = t.v in
    let cap = (t.mask + 1) * 2 in
    t.k1 <- Array.make cap 0;
    t.k2 <- Array.make cap 0;
    t.k3 <- Array.make cap 0;
    t.v <- Array.make cap None;
    t.mask <- cap - 1;
    t.used <- 0;
    Array.iteri (fun i a1 -> if a1 <> 0 then add t (a1 - 1) k2.(i) k3.(i) v.(i)) k1

  and add t a b c value =
    if t.used * 8 >= (t.mask + 1) * 7 then grow t;
    let rec go i =
      if t.k1.(i) = 0 then begin
        t.k1.(i) <- a + 1;
        t.k2.(i) <- b;
        t.k3.(i) <- c;
        t.v.(i) <- value;
        t.used <- t.used + 1
      end
      else go ((i + 1) land t.mask)
    in
    go (slot t a b c)
end

(* The intern tables of one walk.  Entries and ids are table-local, and
   [c_step] and [c_terms] are keyed by those ids. *)
type ('s, 'm, 'o) cache = {
  c_state : 's Intern.t;
  c_msg : (Pid.t * Pid.t * 'm) Intern.t;
  c_out : (Pid.t * 'o) Intern.t;
  c_step : ('s, 'm, 'o) memo_step Memo.t;
  mutable c_terms : int array array;
      (* slot [state id * n + i]: the lane terms of that state held by
         p_(i+1), [combine_int grp.(k).(i) (hs.(k))]; [||] until first use *)
  mutable sc_mids : int array; (* key-packing scratch, grown on demand *)
  mutable sc_oids : int array;
  mutable sc_keys : Bytes.t array; (* reused key buffers, by length in words *)
}

(* A schedule choice: which process steps, and which pending message (by
   buffer id, with its sender) it receives — [None] is the null message. *)
type choice = Pid.t * (int * Pid.t) option

(* A slept choice: the choice, its path-independent descriptor, and the
   intern entry of the message it receives ([None] for a lambda step),
   through which the descriptor is renamed into the orbit
   representative's pid space. *)
type 'm sleeper = {
  choice : choice;
  desc : int;
  sment : (Pid.t * Pid.t * 'm) Intern.entry option;
}

let same_choice ((p : Pid.t), ra) ((q : Pid.t), rb) =
  Pid.equal p q
  &&
  match (ra, rb) with
  | None, None -> true
  | Some (i, _), Some (j, _) -> i = j
  | _ -> false

(* Sorted-int-set helpers for the stored sleep sets. *)
let sorted_descs l = List.sort_uniq Int.compare l

let rec desc_subset a b =
  (* a ⊆ b, both sorted ascending *)
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    let c = Int.compare x y in
    if c = 0 then desc_subset a' b' else if c > 0 then desc_subset a b' else false

let rec desc_inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: a', y :: b' ->
    let c = Int.compare x y in
    if c = 0 then x :: desc_inter a' b'
    else if c < 0 then desc_inter a' b
    else desc_inter a b'

(* In-place insertion sort of a prefix: the id vectors being sorted are
   tiny (one slot per in-flight message or emitted output) and live in
   reusable scratch arrays, so only the first [len] slots are meaningful. *)
let isort (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Whole-vector lane updates: [a.(k) <- a.(k) + b.(k)] (resp. [-]) over
   [a]'s lanes. *)
let vadd (a : int array) (b : int array) =
  for k = 0 to Array.length a - 1 do
    a.(k) <- a.(k) + b.(k)
  done

let vsub (a : int array) (b : int array) =
  for k = 0 to Array.length a - 1 do
    a.(k) <- a.(k) - b.(k)
  done

(* Lane [k]'s fingerprint, [s0] being the mixed (clamped) step count. *)
let[@inline] lane_fp s0 (ls : int array) (lm : int array) (lo : int array) k =
  Hashing.combine_int (Hashing.combine_int (Hashing.combine_int s0 ls.(k)) lm.(k)) lo.(k)

let grow a fill = Array.append a (Array.make (Array.length a) fill)

(* Fixed-width little-endian int in a key buffer (ids and counts are far
   below 2^31). *)
let put4 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

(* ---------- the scope ---------- *)

type ('s, 'm, 'd, 'o) symmetry_spec = {
  renamer : ('s, 'm, 'o) Symmetry.renamer;
  value_map : Symmetry.perm -> 'o -> 'o;
  d_rename : (Pid.t -> Pid.t) -> 'd -> 'd;
}

(* The scope, resolved once per exploration: the reductions selected and
   everything the walk reads about the failure pattern and the detector.
   In the model a detector's output is a history H(p, t) of the pattern,
   so over [max_steps] steps it is one finite table: [views], read in one
   pass of n * (max_steps + 2) queries.  Every other field derives from
   it and the pattern; nothing queries the detector again.  Tables are
   indexed [.(t).(p-1)] for t <= horizon = max_steps + 1. *)
type ('s, 'm, 'd, 'o) scope = {
  canon : bool; (* and the detector-view canonicalizer: dead-message gc, clock clamp *)
  por : bool; (* sleep sets over commuting delivery pairs *)
  por_lambda : bool; (* ... extended to pairs involving lambda steps *)
  spec : ('s, 'm, 'd, 'o) symmetry_spec option; (* present iff decisions quotient *)
  views : 'd array array;
  view_ids : int array array;
      (* small dense ids for the distinct views — the step memo's key
         component (structurally equal views share an id; distinct views
         never do, so a memo hit always replays the same inputs) *)
  view_id_count : int;
  alive : bool array array;
  alive_pids : Pid.t list array; (* ascending *)
  stable : bool array array;
      (* t < max_steps: p survives tick t+1 with an unchanged view — the
         per-process half of the independence (commutation) condition *)
  dies_at : bool array array;
      (* p was alive at t-1 and is crashed at t — the ticks at which the
         dead-message gc erases messages from the lanes *)
  any_death : bool array;
  quiesce_at : int;
      (* the clamp tick: the first q <= horizon from which aliveness and
         every view are constant — beyond it the global clock is
         unobservable and is clamped out of the canonical encoding *)
  group : Symmetry.perm array; (* identity first; the identity alone = symmetry off *)
  images : int array array; (* images.(k).(p-1): p's image under group.(k) *)
  preimages : int array array; (* the same for group.(k)'s inverse *)
  compose : int -> int -> int;
      (* [Symmetry.multiplication group]: "rename by group.(k), then by
         group.(j)", the table the intern tables build orbits from *)
}

let resolve_reduction ~canon ~por ~por_lambda ~symmetry ~pattern ~detector
    ~d_equal ~max_steps =
  let n = Pattern.n pattern in
  let horizon = max_steps + 1 in
  let table f = Array.init (horizon + 1) (fun t -> Array.init n (f t)) in
  let views =
    table (fun t i ->
        Detector.query detector pattern (Pid.of_int (i + 1)) (Time.of_int t))
  in
  let ids = Hashtbl.create 16 in
  let view_ids =
    table (fun t i ->
        let v = views.(t).(i) in
        match Hashtbl.find_opt ids v with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids v id;
          id)
  in
  let alive =
    table (fun t i -> Pattern.is_alive pattern (Pid.of_int (i + 1)) (Time.of_int t))
  in
  (* the one comparison of consecutive views *)
  let unchanged =
    Array.init horizon (fun t ->
        Array.init n (fun i -> d_equal views.(t).(i) views.(t + 1).(i)))
  in
  let dies_at = table (fun t i -> t > 0 && alive.(t - 1).(i) && not alive.(t).(i)) in
  let any_death = Array.map (Array.exists Fun.id) dies_at in
  (* the clamp tick, scanning back from the horizon; crashes are
     permanent, so aliveness changes exactly at a death *)
  let rec steady_from t =
    if t >= 0 && (not any_death.(t + 1)) && Array.for_all Fun.id unchanged.(t) then
      steady_from (t - 1)
    else t + 1
  in
  let group =
    Array.of_list
      (match symmetry with
      | None -> [ Symmetry.identity ~n ]
      | Some spec ->
        Symmetry.filter_equivariant ~views ~d_rename:spec.d_rename ~d_equal
          (Symmetry.crash_respecting pattern))
  in
  {
    canon;
    por;
    por_lambda;
    spec = symmetry;
    views;
    view_ids;
    view_id_count = Hashtbl.length ids;
    alive;
    alive_pids =
      Array.map
        (fun row -> List.filter (fun p -> row.(Pid.to_int p - 1)) (Pid.all ~n))
        alive;
    stable =
      Array.init max_steps (fun t ->
          Array.init n (fun i -> alive.(t + 1).(i) && unchanged.(t).(i)));
    dies_at;
    any_death;
    quiesce_at = steady_from (horizon - 1);
    group;
    images = Array.map (fun pi -> (pi : Symmetry.perm :> int array)) group;
    preimages = Array.map (fun pi -> (Symmetry.inverse pi :> int array)) group;
    compose = Symmetry.multiplication group;
  }

(* ---------- the exploration engine ---------- *)

(* Heartbeat period of the [sink]'s Progress events, in expanded nodes. *)
let progress_every = 250_000

(* The walk's mutable accumulators.  The [t_*] fields are the per-phase
   wall times, sampled only under a live timeline. *)
type 'o acc = {
  mutable nodes : int;
  mutable deepest : int;
  mutable truncated : bool;
  mutable deduped : int;
  mutable por_pruned : int;
  mutable lambda_pruned : int;
  mutable orbit_collapsed : int;
  mutable violations : 'o violation list; (* newest first *)
  mutable decision_list : string list;
  mutable t_expand : float;
  mutable t_hash : float;
  mutable t_encode : float;
  mutable t_confirm : float;
}

let run ?(max_steps = 12) ?(max_nodes = 200_000)
    ?(max_violations = 5) ?(canon = false) ?(por = false) ?(por_lambda = false)
    ?symmetry ?(capture = false) ?(d_equal = fun a b -> a = b)
    ?(sink = Rlfd_obs.Trace.null) ?(paranoid = false)
    ?(timeline = Rlfd_obs.Timeline.null) ~pattern ~detector ~check
    (algo : _ Model.t) =
  if max_steps < 0 then invalid_arg "Explore.run: max_steps < 0";
  if max_violations < 1 then invalid_arg "Explore.run: max_violations < 1";
  let n = Pattern.n pattern in
  let red =
    resolve_reduction ~canon ~por ~por_lambda ~symmetry ~pattern ~detector
      ~d_equal ~max_steps
  in
  (* Every walk interns its components; a violation's schedule keeps the
     received messages' bytes under [capture] or [canon]. *)
  let keep_bytes = red.canon || capture in
  let started_at = Rlfd_obs.Profile.now () in
  (* the phase clock runs only under a live timeline, and only then are
     the (boxed) phase accumulators written *)
  let timed = not (Rlfd_obs.Timeline.is_null timeline) in
  let clk = if timed then Rlfd_obs.Profile.now else fun () -> 0. in
  let views = red.views and alive = red.alive and dies_at = red.dies_at in
  let grp = red.images and inv = red.preimages in
  let g_order = Array.length red.group in
  (* Lane counts: orbits merge exactly when [canon] runs with a symmetry
     spec, and only then do states and messages need a lane per group
     element; outputs have them whenever a spec is present (the decision
     quotient needs renamed outputs even without orbit merging).  Without
     a spec the group is the identity alone. *)
  let sm_lanes = if red.canon then g_order else 1 in
  let rename_state, rename_msg, rename_out =
    match red.spec with
    | None -> ((fun _ s -> s), (fun _ m -> m), fun _ o -> o)
    | Some spec ->
      let rens = Array.map (fun pi -> (Symmetry.apply pi, spec.value_map pi)) red.group in
      ( (fun k s ->
          let pid, value = rens.(k) in
          spec.renamer.Symmetry.rename_state ~pid ~value s),
        (fun k (src, dst, m) ->
          let pid, value = rens.(k) in
          (pid src, pid dst, spec.renamer.Symmetry.rename_msg ~pid ~value m)),
        fun k (p, o) ->
          let pid, value = rens.(k) in
          (pid p, value o) )
  in
  let table order rename =
    Intern.create ~encode:Canon.encode_value
      ~group:{ Intern.order; rename; compose = red.compose }
      ()
  in
  let cache =
    {
      c_state = table sm_lanes rename_state;
      c_msg = table sm_lanes rename_msg;
      c_out = table g_order rename_out;
      c_step = Memo.create ();
      c_terms = Array.make 256 [||];
      sc_mids = Array.make 32 0;
      sc_oids = Array.make 32 0;
      sc_keys = Array.make 64 Bytes.empty;
    }
  in
  (* Interning, audited under [paranoid]: every new orbit's lanes are
     re-derived by renaming each member directly. *)
  let intern tbl rename v =
    let before = Intern.length tbl in
    let e = Intern.intern tbl v in
    if paranoid && Intern.length tbl > before then
      for j0 = 0 to Array.length (Intern.hs e) - 1 do
        let m = Intern.ren e j0 in
        Array.iteri
          (fun j hj ->
            let r = Intern.ren m j in
            if Intern.value r <> rename j (Intern.value m) || hj <> Intern.h r then
              failwith "Explore: an interned orbit's lanes diverged from direct renaming")
          (Intern.hs m)
      done;
    e
  in
  (* The lane terms of state [e] held by p_(i+1) (see [c_terms]); a hit
     allocates nothing. *)
  let s_terms e i =
    let slot = (Intern.id e * n) + i in
    while slot >= Array.length cache.c_terms do
      cache.c_terms <- grow cache.c_terms [||]
    done;
    let v = cache.c_terms.(slot) in
    if Array.length v > 0 then v
    else begin
      let hs = Intern.hs e in
      let v = Array.init sm_lanes (fun k -> Hashing.combine_int grp.(k).(i) hs.(k)) in
      cache.c_terms.(slot) <- v;
      v
    end
  in
  (* A message is part of the canonical state iff its destination can still
     receive it: the view canonicalizer erases messages to crashed
     processes (crashes are permanent, only alive processes schedule, so
     they are unreceivable path bookkeeping). *)
  let counted t m = alive.(t).(Pid.to_int m.mdst - 1) in
  let clamp_step step_no = Stdlib.min step_no red.quiesce_at in
  (* --- from-scratch lane computation: the root's lanes, and the
     [paranoid] oracle the incremental updates are checked against --- *)
  let scratch_s_lanes s_ents =
    Array.init sm_lanes (fun k ->
        let sum = ref 0 in
        for i = 0 to n - 1 do
          sum :=
            !sum + Hashing.combine_int grp.(k).(i) (Intern.h (Intern.ren s_ents.(i) k))
        done;
        !sum)
  in
  let scratch_m_lanes step_no buffer =
    Array.init sm_lanes (fun k ->
        List.fold_left
          (fun sum m ->
            if counted step_no m then sum + Intern.h (Intern.ren m.ment k)
            else sum)
          0 buffer)
  in
  let scratch_o_lanes out_ents =
    Array.init sm_lanes (fun k ->
        List.fold_left (fun sum e -> sum + Intern.h (Intern.ren e k)) 0 out_ents)
  in
  let root =
    let s_ents =
      Array.init n (fun i ->
          intern cache.c_state rename_state (algo.Model.initial ~n (Pid.of_int (i + 1))))
    in
    {
      step_no = 0;
      s_ents;
      buffer = [];
      next_id = 0;
      ls = (if red.canon then scratch_s_lanes s_ents else [||]);
      lm = (if red.canon then Array.make sm_lanes 0 else [||]);
    }
  in
  let acc =
    {
      nodes = 0;
      deepest = 0;
      truncated = false;
      deduped = 0;
      por_pruned = 0;
      lambda_pruned = 0;
      orbit_collapsed = 0;
      violations = [];
      decision_list = [];
      t_expand = 0.;
      t_hash = 0.;
      t_encode = 0.;
      t_confirm = 0.;
    }
  in
  (* All choices available in [config]: each alive process may take a lambda
     step or receive any one pending message addressed to it. *)
  let choices config =
    List.concat_map
      (fun p ->
        let rec collect = function
          | [] -> [ (p, None) ]
          | m :: rest ->
            if Pid.equal m.mdst p then (p, Some (m.mid, m.msrc)) :: collect rest
            else collect rest
        in
        collect config.buffer)
      red.alive_pids.(config.step_no)
  in
  let envelope = function
    | None -> None
    | Some m ->
      let _, _, payload = Intern.value m.ment in
      Some { Model.src = m.msrc; dst = m.mdst; payload }
  in
  (* The [paranoid] oracle for the step memo: the automaton called directly
     on this edge's own state, message and view must yield the memoized
     successor state, sends and outputs. *)
  let audit_step p t e_old received r =
    let i = Pid.to_int p - 1 in
    let eff =
      algo.Model.step ~n ~self:p (Intern.value e_old) (envelope received) views.(t).(i)
    in
    let sends = List.map (fun (dst, e) -> (dst, Intern.value e)) r.r_sends in
    if
      eff.Model.state <> Intern.value r.r_ent
      || List.map (fun (dst, m) -> (dst, (p, dst, m))) eff.Model.sends <> sends
      || eff.Model.outputs <> r.r_outputs
    then failwith "Explore: a memoized step diverged from a direct call of the automaton"
  in
  (* One step: extract the received message, look the step up in the memo
     (running the automaton on a miss), then, under [canon], update the
     fingerprint lanes on the delta — the stepped process's state term
     swaps, the consumed message's term leaves, newly dead destinations'
     terms leave, each send's term enters.  Nothing older than the step is
     re-encoded or re-hashed. *)
  let apply config ((p, receive) : choice) =
    let ta = clk () in
    let i = Pid.to_int p - 1 in
    let t = config.step_no in
    let received, buffer0 =
      match receive with
      | None -> (None, config.buffer)
      | Some (id, _src) ->
        let rec extract seen = function
          | [] -> (None, List.rev seen)
          | m :: rest when m.mid = id -> (Some m, List.rev_append seen rest)
          | other :: rest -> extract (other :: seen) rest
        in
        extract [] config.buffer
    in
    let e_old = config.s_ents.(i) in
    let r =
      let mid = match received with Some m -> Intern.id m.ment | None -> -1 in
      let iv = (i * red.view_id_count) + red.view_ids.(t).(i) in
      let sid = Intern.id e_old in
      match Memo.find cache.c_step sid mid iv with
      | Some r -> r
      | None ->
        let effects =
          algo.Model.step ~n ~self:p (Intern.value e_old) (envelope received) views.(t).(i)
        in
        let r =
          {
            r_ent = intern cache.c_state rename_state effects.Model.state;
            r_sends =
              List.map
                (fun (dst, payload) -> (dst, intern cache.c_msg rename_msg (p, dst, payload)))
                effects.Model.sends;
            r_outputs = effects.Model.outputs;
          }
        in
        Memo.add cache.c_step sid mid iv (Some r);
        r
    in
    if paranoid then audit_step p t e_old received r;
    let s_ents = Array.copy config.s_ents in
    s_ents.(i) <- r.r_ent;
    let buffer, next_id =
      List.fold_left
        (fun (buffer, next_id) (dst, ment) ->
          ({ mid = next_id; msrc = p; mdst = dst; ment } :: buffer, next_id + 1))
        (buffer0, config.next_id) r.r_sends
    in
    let tb = clk () in
    let t' = t + 1 in
    let ls, lm =
      if not red.canon then (config.ls, config.lm)
      else begin
        let ls = Array.copy config.ls in
        let old_t = s_terms e_old i and new_t = s_terms r.r_ent i in
        for k = 0 to sm_lanes - 1 do
          ls.(k) <- ls.(k) - old_t.(k) + new_t.(k)
        done;
        let lm = Array.copy config.lm in
        (* the receiver is its destination and is alive now, so the
           received message was counted: unconditionally subtract *)
        (match received with None -> () | Some m -> vsub lm (Intern.hs m.ment));
        if red.any_death.(t') then
          List.iter
            (fun m -> if dies_at.(t').(Pid.to_int m.mdst - 1) then vsub lm (Intern.hs m.ment))
            buffer0;
        List.iter
          (fun (dst, ment) -> if alive.(t').(Pid.to_int dst - 1) then vadd lm (Intern.hs ment))
          r.r_sends;
        (ls, lm)
      end
    in
    if timed then begin
      let tc = clk () in
      acc.t_expand <- acc.t_expand +. (tb -. ta);
      acc.t_hash <- acc.t_hash +. (tc -. tb)
    end;
    ({ step_no = t'; s_ents; buffer; next_id; ls; lm }, r.r_outputs, received)
  in
  (* --- canonical identity: fingerprint, orbit choice, packed key ---
     The 63-bit fingerprint of lane k is the hash of the configuration as
     renamed by group element k, assembled from the incrementally
     maintained sums.  The orbit representative is the lane with the
     smallest fingerprint — a pure function of the component values, so
     every walk picks the same one.  The stored key packs the interned ids
     of the representative's components: within one table's lifetime ids
     are in bijection with distinct values, so key equality is exact state
     equality — the byte-exact confirmation the visited set performs on
     every fingerprint hit. *)
  let pack config out_ents k =
    let t = config.step_no in
    let nm = ref 0 in
    List.iter
      (fun m ->
        if counted t m then begin
          if !nm >= Array.length cache.sc_mids then
            cache.sc_mids <- grow cache.sc_mids 0;
          cache.sc_mids.(!nm) <- Intern.id (Intern.ren m.ment k);
          incr nm
        end)
      config.buffer;
    let mids = cache.sc_mids in
    isort mids !nm;
    let no = ref 0 in
    List.iter
      (fun e ->
        if !no >= Array.length cache.sc_oids then cache.sc_oids <- grow cache.sc_oids 0;
        cache.sc_oids.(!no) <- Intern.id (Intern.ren e k);
        incr no)
      out_ents;
    let oids = cache.sc_oids in
    isort oids !no;
    let words = 3 + n + !nm + !no in
    while words >= Array.length cache.sc_keys do
      cache.sc_keys <- grow cache.sc_keys Bytes.empty
    done;
    if Bytes.length cache.sc_keys.(words) = 0 then
      cache.sc_keys.(words) <- Bytes.create (4 * words);
    let b = cache.sc_keys.(words) in
    put4 b 0 (clamp_step t);
    for q = 0 to n - 1 do
      put4 b (4 * (1 + q)) (Intern.id (Intern.ren config.s_ents.(inv.(k).(q) - 1) k))
    done;
    let off = 4 * (1 + n) in
    put4 b off !nm;
    for idx = 0 to !nm - 1 do
      put4 b (off + 4 * (1 + idx)) mids.(idx)
    done;
    let off = off + 4 * (1 + !nm) in
    put4 b off !no;
    for idx = 0 to !no - 1 do
      put4 b (off + 4 * (1 + idx)) oids.(idx)
    done;
    b
  in
  (* Index (in [red.group]) of the representative's permutation, the
     visited-set fingerprint, and the packed id-vector key — in a reused
     buffer, valid until the next call: copy it to keep it.  One pass over
     the lanes, the step's mix computed once; ties go to the first lane. *)
  let encode config lo out_ents =
    let s0 = Hashing.mix_int (clamp_step config.step_no) in
    let ls = config.ls and lm = config.lm in
    let k =
      if sm_lanes = 1 then 0
      else begin
        let best = ref (lane_fp s0 ls lm lo 0) and bi = ref 0 in
        for k = 1 to sm_lanes - 1 do
          let f = lane_fp s0 ls lm lo k in
          if f < !best then begin
            best := f;
            bi := k
          end
        done;
        !bi
      end
    in
    (k, lane_fp s0 ls lm lo k, pack config out_ents k)
  in
  (* The [paranoid] oracle for one edge, independent of the fast paths
     above: every lane from scratch, each lane's fingerprint with the
     step's mix inside the loop, the first minimal lane, and that lane's
     key built from sorted lists.  Raises unless the incremental lanes,
     the orbit index and the packed key all agree. *)
  let audit_edge config lo out_ents orbit key =
    let t = config.step_no in
    let ls = scratch_s_lanes config.s_ents
    and lm = scratch_m_lanes t config.buffer
    and lo_s = scratch_o_lanes out_ents in
    if ls <> config.ls || lm <> config.lm || lo_s <> lo then
      failwith "Explore: incremental fingerprint diverged from from-scratch recomputation";
    let fp k =
      Hashing.combine_int
        (Hashing.combine_int
           (Hashing.combine_int (Hashing.mix_int (clamp_step t)) ls.(k))
           lm.(k))
        lo_s.(k)
    in
    let slow = ref 0 in
    for k = 1 to sm_lanes - 1 do
      if fp k < fp !slow then slow := k
    done;
    let k = !slow in
    let ids = List.sort Int.compare in
    let ints =
      (clamp_step t
       :: List.init n (fun q -> Intern.id (Intern.ren config.s_ents.(inv.(k).(q) - 1) k)))
      @ (let mids =
           ids
             (List.filter_map
                (fun m ->
                  if counted t m then Some (Intern.id (Intern.ren m.ment k))
                  else None)
                config.buffer)
         in
         List.length mids :: mids)
      @
      let oids = ids (List.map (fun e -> Intern.id (Intern.ren e k)) out_ents) in
      List.length oids :: oids
    in
    let b = Bytes.create (4 * List.length ints) in
    List.iteri (fun j v -> put4 b (4 * j) v) ints;
    if k <> orbit || not (Bytes.equal b key) then
      failwith "Explore: orbit representative or key diverged from the from-scratch choice"
  in
  (* Decision states: the multiset of outputs emitted so far.  Under
     symmetry the recorded multiset is its orbit representative, so the
     quotiented sets stay comparable byte-for-byte across runs.  The
     renamed encodings come off the interned outputs' lanes — memoized,
     never recomputed. *)
  let quotient_decision out_ents =
    match red.spec with
    | None -> Canon.multiset (List.map Intern.enc out_ents)
    | Some _ ->
      let best = ref (Canon.multiset (List.map Intern.enc out_ents)) in
      for k = 1 to g_order - 1 do
        let enc =
          Canon.multiset (List.map (fun e -> Intern.enc (Intern.ren e k)) out_ents)
        in
        if String.compare enc !best < 0 then best := enc
      done;
      !best
  in
  (* Two choices are independent at a configuration iff they belong to
     distinct processes that both survive the next tick and whose detector
     modules return the same value at this tick and the next: then either
     execution order yields canonically equal states (the receivers are
     distinct, so neither consumes nor preempts the other's message, and
     neither step's inputs change).  The base [por] layer admits only
     delivery pairs; [por_lambda] extends the relation to pairs involving
     internal lambda steps.  The per-process condition is the precomputed
     [stable] table. *)
  let indep_at t ((p, ra) : choice) ((q, rb) : choice) =
    (not (Pid.equal p q))
    && (match (ra, rb) with
       | Some _, Some _ -> red.por
       | None, _ | _, None -> red.por_lambda)
    && red.stable.(t).(Pid.to_int p - 1)
    && red.stable.(t).(Pid.to_int q - 1)
  in
  let sleeping = red.por || red.por_lambda in
  let lambda_tag = 0x6C616D62 in
  (* The sleep entry of an explored choice, with its path-independent
     descriptor: the process plus the fingerprint of the received message
     (a tag for lambda), so sleep sets reached along different paths
     compare meaningfully.  The explored child's message was already
     extracted by [apply], so the descriptor and the message's entry come
     straight off it — no buffer search. *)
  let sleeper ((p, _) as choice) received =
    let sment = Option.map (fun m -> m.ment) received in
    let h = match sment with None -> lambda_tag | Some e -> Intern.h e in
    { choice; desc = Hashing.combine_int (Pid.to_int p) h; sment }
  in
  (* The same descriptor pushed through the orbit-representative renaming:
     sleep sets stored with a canonical state must be named in the {e
     representative's} pid space, so that two branches whose states merge
     only up to a permutation still compare their sleep sets meaningfully.
     For the identity orbit the concrete descriptor is already in rep
     space; the received message's lanes come off the entry the sleeper
     carries. *)
  let rep_descriptor ~orbit b =
    if orbit = 0 then b.desc
    else
      let img = grp.(orbit).(Pid.to_int (fst b.choice) - 1) in
      match b.sment with
      | None -> Hashing.combine_int img lambda_tag
      | Some e -> Hashing.combine_int img (Intern.hs e).(orbit)
  in
  (* --- the walk ---

     Every call counts its expansion (the root included).  The budget is
     checked per {e child}: [acc.truncated] is set only when an unexplored,
     non-duplicate child exists with the budget already spent, so a tree of
     exactly the budget's expanded nodes still reports complete and a
     duplicate child never spends budget.

     [sleep] carries the sleep set (choices whose exploration here would
     only permute provably commuting steps of an already-explored sibling
     branch); the visited set keeps, per canonical state, the step count
     and the descriptor hashes of the sleep set it was expanded under, the
     latter renamed into the orbit representative's pid space so branches
     that merge only up to a permutation still compare sleep sets.  A
     revisit is pruned only when the stored expansion dominates it — no
     larger step count (the clock clamp can merge states across depths, and
     only the shallower expansion covers the deeper budget) and a sleep set
     contained in the current one; otherwise it is re-expanded under the
     intersection, the standard sound combination of sleep sets with state
     caching, lifted along the orbit isomorphism (sound because decision
     multisets are orbit-quotiented). *)
  let visited = Hashing.Table.create ~initial:4096 () in
  let decisions : unit Hashing.Table.t = Hashing.Table.create ~initial:64 () in
  let record_decision out_ents =
    let enc = quotient_decision out_ents in
    let key = Hashing.of_string_int enc in
    match Hashing.Table.find decisions ~key enc with
    | Some () -> ()
    | None ->
      Hashing.Table.set decisions ~key enc ();
      acc.decision_list <- enc :: acc.decision_list
  in
  let add_violation v =
    if List.length acc.violations < max_violations then begin
      acc.violations <- v :: acc.violations;
      if not (Rlfd_obs.Trace.is_null sink) then
        Rlfd_obs.Trace.(
          emit sink (Violation { time = v.at_step; reason = v.reason }))
    end
  in
  let progress () =
    if (not (Rlfd_obs.Trace.is_null sink)) && acc.nodes mod progress_every = 0
    then begin
      let elapsed = Rlfd_obs.Profile.now () -. started_at in
      let rate =
        if elapsed > 0. then float_of_int acc.nodes /. elapsed else 0.
      in
      let detail =
        [ ("depth", float_of_int acc.deepest);
          ("violations", float_of_int (List.length acc.violations)) ]
        @ (if red.canon then
             [ ("distinct", float_of_int (Hashing.Table.length visited));
               ("deduped", float_of_int acc.deduped);
               (* key bytes plus an estimated 24 bytes per slot *)
               ("table_bytes",
                float_of_int
                  (Hashing.Table.key_bytes visited
                  + (Hashing.Table.capacity visited * 24))) ]
           else [])
        @
        if sleeping then
          [ ("por_pruned", float_of_int (acc.por_pruned + acc.lambda_pruned)) ]
        else []
      in
      Rlfd_obs.Trace.(
        emit sink
          (Progress
             { time = int_of_float (elapsed *. 1000.); label = "explore";
               done_ = acc.nodes; total = Some max_nodes; rate; detail }))
    end
  in
  (* [steps] is kept newest-first and reversed when a violation is
     recorded — appending per child would copy the whole path each
     time. *)
  let rec dfs config lo out_ents outputs steps sleep =
    acc.nodes <- acc.nodes + 1;
    progress ();
    if config.step_no > acc.deepest then acc.deepest <- config.step_no;
    if config.step_no < max_steps then begin
      let cs = choices config in
      let t = config.step_no in
      let done_ = ref [] in
      List.iter
        (fun (a : choice) ->
          if
            (not acc.truncated)
            && List.length acc.violations < max_violations
          then begin
            if
              sleeping && List.exists (fun b -> same_choice a b.choice) sleep
            then begin
              match a with
              | _, None -> acc.lambda_pruned <- acc.lambda_pruned + 1
              | _, Some _ -> acc.por_pruned <- acc.por_pruned + 1
            end
            else begin
              let config', outs, received = apply config a in
              let p, _ = a in
              if sleeping then done_ := sleeper a received :: !done_;
              let outputs' =
                if outs = [] then outputs
                else outputs @ List.map (fun o -> (p, o)) outs
              in
              let out_ents', lo' =
                if outs = [] then (out_ents, lo)
                else begin
                  let lo' = if red.canon then Array.copy lo else lo in
                  let ents =
                    List.fold_left
                      (fun ents o ->
                        let e = intern cache.c_out rename_out (p, o) in
                        if red.canon then vadd lo' (Intern.hs e);
                        e :: ents)
                      out_ents outs
                  in
                  (ents, lo')
                end
              in
              let steps' =
                ( p,
                  match received with
                  | None -> None
                  | Some m ->
                    Some (m.msrc, if keep_bytes then Intern.enc m.ment else "") )
                :: steps
              in
              let sleep' =
                if sleeping then
                  List.filter (fun b -> indep_at t a b.choice) (!done_ @ sleep)
                else []
              in
              (* the one budget check: a child that would be expanded *)
              let visit sleep' =
                if acc.nodes >= max_nodes then acc.truncated <- true
                else begin
                  if outs <> [] then record_decision out_ents';
                  (match (outs, check outputs') with
                  | _ :: _, Some reason ->
                    let chron = List.rev steps' in
                    add_violation
                      {
                        at_step = config'.step_no;
                        schedule = chron;
                        outputs = outputs';
                        reason;
                      }
                  | _ -> ());
                  dfs config' lo' out_ents' outputs' steps' sleep'
                end
              in
              if not red.canon then visit sleep'
              else begin
                let t2 = clk () in
                let orbit, key, kb = encode config' lo' out_ents' in
                if paranoid then audit_edge config' lo' out_ents' orbit kb;
                if orbit > 0 then
                  acc.orbit_collapsed <- acc.orbit_collapsed + 1;
                (* the CONCRETE depth, not the clamped one: the clock
                   clamp merges encodings across depths, and only an
                   expansion at least as shallow (>= remaining budget)
                   covers a revisit *)
                let step' = config'.step_no in
                let rdescs =
                  List.map (fun b -> (b, rep_descriptor ~orbit b)) sleep'
                in
                let descs = sorted_descs (List.map snd rdescs) in
                let t3 = clk () in
                if timed then acc.t_encode <- acc.t_encode +. (t3 -. t2);
                (match
                   Hashing.Table.find visited ~key (Bytes.unsafe_to_string kb)
                 with
                | Some (s_step, s_descs)
                  when s_step <= step' && desc_subset s_descs descs ->
                  if timed then acc.t_confirm <- acc.t_confirm +. (clk () -. t3);
                  acc.deduped <- acc.deduped + 1
                | prior ->
                  let stored, sleep' =
                    match prior with
                    | None -> ((step', descs), sleep')
                    | Some (s_step, s_descs) ->
                      let inter = desc_inter s_descs descs in
                      ( (Stdlib.min s_step step', inter),
                        List.filter_map
                          (fun (e, rd) ->
                            if List.exists (Int.equal rd) inter then Some e
                            else None)
                          rdescs )
                  in
                  (* the table keeps the key: store a copy of the buffer *)
                  Hashing.Table.set visited ~key (Bytes.to_string kb) stored;
                  if timed then acc.t_confirm <- acc.t_confirm +. (clk () -. t3);
                  visit sleep')
              end
            end
          end)
        cs
    end
  in
  (* the empty decision multiset is reachable at the root *)
  record_decision [];
  dfs root (if red.canon then Array.make sm_lanes 0 else [||]) [] [] [] [];
  if not (Rlfd_obs.Timeline.is_null timeline) then begin
    (* the phase accumulators become four aggregate spans *)
    let rec_ = Rlfd_obs.Timeline.recorder timeline "dfs" in
    Rlfd_obs.Timeline.record_span rec_ "expand" ~dur_s:acc.t_expand;
    Rlfd_obs.Timeline.record_span rec_ "hash" ~dur_s:acc.t_hash;
    Rlfd_obs.Timeline.record_span rec_ "encode" ~dur_s:acc.t_encode;
    Rlfd_obs.Timeline.record_span rec_ "confirm" ~dur_s:acc.t_confirm
  end;
  {
    nodes_explored = acc.nodes;
    distinct_states = (if red.canon then Hashing.Table.length visited else acc.nodes);
    deduped = acc.deduped;
    por_pruned = acc.por_pruned;
    lambda_pruned = acc.lambda_pruned;
    orbit_collapsed = acc.orbit_collapsed;
    complete = not acc.truncated;
    deepest = acc.deepest;
    violations = List.rev acc.violations;
    decision_states = List.sort String.compare acc.decision_list;
  }

(* ---------- self-description (the --explain surface) ---------- *)

let describe ?(max_steps = 12) ?(canon = false) ?(por = false)
    ?(por_lambda = false) ?symmetry ?(d_equal = fun a b -> a = b) ~pattern
    ~detector () =
  let red =
    resolve_reduction ~canon ~por ~por_lambda ~symmetry ~pattern ~detector
      ~d_equal ~max_steps
  in
  [ (if red.canon then
       "reduction: canon (incremental-fingerprint dedup: per-step delta \
        hashing, interned components, id-vector keys confirmed exactly)"
     else "reduction: canon off (naive enumeration)") ]
  @ (if red.canon then
       [ Printf.sprintf
           "reduction: detector-view canonicalizer (dead-message gc, clock \
            clamp at t=%d%s)"
           red.quiesce_at
           (if red.quiesce_at > max_steps then " — never quiesces in scope"
            else "") ]
     else [])
  @ [ (if red.por then "reduction: por (sleep sets over delivery pairs)"
       else "reduction: por off");
      (if red.por_lambda then
         "reduction: por-lambda (sleep sets extended to lambda steps)"
       else "reduction: por-lambda off") ]
  @
  match red.spec with
  | None -> [ "reduction: symmetry off" ]
  | Some _ ->
    [ Printf.sprintf
        "reduction: symmetry (group order %d after crash-pattern and \
         detector equivariance; %s)"
        (Array.length red.group)
        (if red.canon then
           "orbit representative = min fingerprint lane; orbits hashconsed \
            whole, one renaming per group element"
         else "without canon only the decision sets are quotiented") ]

(* ---------- the cross-check oracle ---------- *)

type 'o comparison = {
  reduced : 'o report;
  unreduced : 'o report;
  identical : bool;
  node_factor : float;
}

let cross_check ?max_steps ?max_nodes ?max_violations ?(canon = true)
    ?(por = true) ?(por_lambda = true) ?symmetry ?d_equal ?sink ~pattern
    ~detector ~check algo =
  let reduced =
    run ?max_steps ?max_nodes ?max_violations ~canon ~por ~por_lambda
      ?symmetry ?d_equal ?sink ~pattern ~detector ~check algo
  in
  (* The naive side explores the full tree, but — when the reduced side
     quotients by symmetry — records its decision multisets through the
     same quotient, so the two sets are compared in the same coordinates
     (without [canon], no orbit of visited states is merged). *)
  let unreduced =
    run ?max_steps ?max_nodes ?max_violations ~canon:false ~por:false
      ~por_lambda:false ?symmetry ?d_equal ?sink ~pattern ~detector ~check
      algo
  in
  {
    reduced;
    unreduced;
    identical =
      unreduced.complete && reduced.complete
      && List.equal String.equal unreduced.decision_states reduced.decision_states
      && List.length unreduced.violations = List.length reduced.violations;
    node_factor =
      float_of_int unreduced.nodes_explored
      /. float_of_int (Stdlib.max 1 reduced.nodes_explored);
  }

let agreement_check ~equal outputs =
  match outputs with
  | [] -> None
  | (p0, v0) :: rest -> (
    match List.find_opt (fun (_, v) -> not (equal v0 v)) rest with
    | None -> None
    | Some (p, _) ->
      Some
        (Format.asprintf "agreement: %a and %a decided differently" Pid.pp p0 Pid.pp p))

let validity_check ~n ~proposals ~equal outputs =
  let proposed = List.map proposals (Pid.all ~n) in
  match
    List.find_opt (fun (_, v) -> not (List.exists (equal v) proposed)) outputs
  with
  | None -> None
  | Some (p, _) ->
    Some (Format.asprintf "validity: %a decided a value nobody proposed" Pid.pp p)

let both a b outputs = match a outputs with Some r -> Some r | None -> b outputs

(* Per-domain span/event collection for the runtime observatory.

   Every recorder is owned by exactly one domain, so recording takes no
   lock: a record is a handful of array stores into preallocated ring
   buffers.  The only synchronisation is recorder registration (a mutex,
   once per domain) and the post-hoc merge, which runs after the worker
   domains have joined. *)

let version = 1

let default_capacity = 8192

let max_depth = 64

(* record kinds in the ring *)
let k_span = 0

let k_event = 1

type recorder = {
  r_label : string;
  cap : int;
  (* the ring: slot [i mod cap] holds record [i]; [total] counts records
     ever written, so [max 0 (total - cap)] of the oldest were overwritten
     — the explicit drop counter *)
  kind : int array;
  name_id : int array;
  tag : int array;
  depth_a : int array;
  rt0 : float array;  (* monotonic seconds (Profile.now) *)
  rt1 : float array;
  minor_a : int array;
  major_a : int array;
  alloc_a : float array;  (* words allocated during the span *)
  promoted_a : float array;  (* words promoted during the span *)
  mutable total : int;
  (* the open-span stack — function-structured nesting *)
  mutable depth : int;
  s_name : int array;
  s_tag : int array;
  s_t0 : float array;
  s_minor : int array;
  s_major : int array;
  s_alloc : float array;
  s_promoted : float array;
  (* recorder-local name interning (no lock: recorder is domain-private) *)
  names : (string, int) Hashtbl.t;
  mutable rev_names : string list;
  mutable n_names : int;
}

let make_recorder ~cap label =
  {
    r_label = label;
    cap;
    kind = Array.make (max cap 1) 0;
    name_id = Array.make (max cap 1) 0;
    tag = Array.make (max cap 1) 0;
    depth_a = Array.make (max cap 1) 0;
    rt0 = Array.make (max cap 1) 0.;
    rt1 = Array.make (max cap 1) 0.;
    minor_a = Array.make (max cap 1) 0;
    major_a = Array.make (max cap 1) 0;
    alloc_a = Array.make (max cap 1) 0.;
    promoted_a = Array.make (max cap 1) 0.;
    total = 0;
    depth = 0;
    s_name = Array.make max_depth 0;
    s_tag = Array.make max_depth 0;
    s_t0 = Array.make max_depth 0.;
    s_minor = Array.make max_depth 0;
    s_major = Array.make max_depth 0;
    s_alloc = Array.make max_depth 0.;
    s_promoted = Array.make max_depth 0.;
    names = Hashtbl.create 16;
    rev_names = [];
    n_names = 0;
  }

let null_recorder = make_recorder ~cap:0 "null"

let is_null_recorder r = r.cap = 0

let dropped r = Stdlib.max 0 (r.total - r.cap)

let name_id r name =
  match Hashtbl.find_opt r.names name with
  | Some id -> id
  | None ->
    let id = r.n_names in
    Hashtbl.add r.names name id;
    r.rev_names <- name :: r.rev_names;
    r.n_names <- id + 1;
    id

let push_record r ~kind ~name ~tag ~depth ~t0 ~t1 ~minor ~major ~alloc
    ~promoted =
  let slot = r.total mod r.cap in
  r.kind.(slot) <- kind;
  r.name_id.(slot) <- name_id r name;
  r.tag.(slot) <- tag;
  r.depth_a.(slot) <- depth;
  r.rt0.(slot) <- t0;
  r.rt1.(slot) <- t1;
  r.minor_a.(slot) <- minor;
  r.major_a.(slot) <- major;
  r.alloc_a.(slot) <- alloc;
  r.promoted_a.(slot) <- promoted;
  r.total <- r.total + 1

let event r ?(tag = 0) name =
  if r.cap > 0 then begin
    let t = Profile.now () in
    push_record r ~kind:k_event ~name ~tag ~depth:r.depth ~t0:t ~t1:t ~minor:0
      ~major:0 ~alloc:0. ~promoted:0.
  end

let enter r ?(tag = 0) name =
  if r.cap > 0 then begin
    if r.depth >= max_depth then
      invalid_arg "Timeline.enter: span nesting deeper than 64";
    let g = Gc.quick_stat () in
    let d = r.depth in
    r.s_name.(d) <- name_id r name;
    r.s_tag.(d) <- tag;
    r.s_t0.(d) <- Profile.now ();
    r.s_minor.(d) <- g.Gc.minor_collections;
    r.s_major.(d) <- g.Gc.major_collections;
    r.s_alloc.(d) <- g.Gc.minor_words +. g.Gc.major_words;
    r.s_promoted.(d) <- g.Gc.promoted_words;
    r.depth <- d + 1
  end

let leave r =
  if r.cap > 0 then begin
    if r.depth = 0 then invalid_arg "Timeline.leave: no open span";
    let t1 = Profile.now () in
    let g = Gc.quick_stat () in
    let d = r.depth - 1 in
    r.depth <- d;
    let slot = r.total mod r.cap in
    r.kind.(slot) <- k_span;
    r.name_id.(slot) <- r.s_name.(d);
    r.tag.(slot) <- r.s_tag.(d);
    r.depth_a.(slot) <- d;
    r.rt0.(slot) <- r.s_t0.(d);
    r.rt1.(slot) <- t1;
    r.minor_a.(slot) <- g.Gc.minor_collections - r.s_minor.(d);
    r.major_a.(slot) <- g.Gc.major_collections - r.s_major.(d);
    r.alloc_a.(slot) <- g.Gc.minor_words +. g.Gc.major_words -. r.s_alloc.(d);
    r.promoted_a.(slot) <- g.Gc.promoted_words -. r.s_promoted.(d);
    r.total <- r.total + 1
  end

let span r ?tag name f =
  if r.cap = 0 then f ()
  else begin
    enter r ?tag name;
    match f () with
    | result ->
      leave r;
      result
    | exception exn ->
      leave r;
      raise exn
  end

let record_span r ?(tag = 0) name ~dur_s =
  if r.cap > 0 then begin
    let t1 = Profile.now () in
    push_record r ~kind:k_span ~name ~tag ~depth:r.depth ~t0:(t1 -. dur_s) ~t1
      ~minor:0 ~major:0 ~alloc:0. ~promoted:0.
  end

(* ---------- the collector ---------- *)

type t = {
  t_label : string;
  capacity : int;
  origin_s : float;  (* Profile.now at creation: span times are relative *)
  wall_started_at : float;
  lock : Mutex.t;
  mutable recorders : recorder list;  (* reversed registration order *)
  active : bool;  (* false only for [null] *)
}

let null =
  {
    t_label = "null";
    capacity = 0;
    origin_s = 0.;
    wall_started_at = 0.;
    lock = Mutex.create ();
    recorders = [];
    active = false;
  }

let is_null t = not t.active

let create ?(capacity = default_capacity) ~label () =
  if capacity < 1 then invalid_arg "Timeline.create: capacity < 1";
  {
    t_label = label;
    capacity;
    origin_s = Profile.now ();
    wall_started_at = Profile.wall ();
    lock = Mutex.create ();
    recorders = [];
    active = true;
  }

let recorder t label =
  if not t.active then null_recorder
  else begin
    let r = make_recorder ~cap:t.capacity label in
    Mutex.protect t.lock (fun () -> t.recorders <- r :: t.recorders);
    r
  end

(* ---------- merge: recorders -> one artifact ---------- *)

type span_rec = {
  sp_name : string;
  sp_tag : int;
  sp_depth : int;
  sp_t0 : float;  (* seconds since the timeline origin *)
  sp_dur : float;
  sp_minor : int;
  sp_major : int;
  sp_alloc_w : float;
  sp_promoted_w : float;
}

type event_rec = { ev_name : string; ev_tag : int; ev_t : float }

type domain_rec = {
  dom_label : string;
  dom_dropped : int;
  dom_first : float;
  dom_last : float;
  dom_spans : span_rec list;  (* sorted by (t0, depth) *)
  dom_events : event_rec list;  (* sorted by t *)
}

type artifact = {
  a_label : string;
  a_wall_started_at : float;
  a_elapsed : float;
  a_dropped : int;
  a_domains : domain_rec list;  (* sorted by label *)
}

let merge t =
  let recorders = Mutex.protect t.lock (fun () -> List.rev t.recorders) in
  let now = Profile.now () in
  let domains =
    List.map
      (fun r ->
        let names = Array.of_list (List.rev r.rev_names) in
        let first_slot = Stdlib.max 0 (r.total - r.cap) in
        let spans = ref [] and events = ref [] in
        for i = r.total - 1 downto first_slot do
          let s = i mod r.cap in
          if r.kind.(s) = k_span then
            spans :=
              {
                sp_name = names.(r.name_id.(s));
                sp_tag = r.tag.(s);
                sp_depth = r.depth_a.(s);
                sp_t0 = r.rt0.(s) -. t.origin_s;
                sp_dur = r.rt1.(s) -. r.rt0.(s);
                sp_minor = r.minor_a.(s);
                sp_major = r.major_a.(s);
                sp_alloc_w = r.alloc_a.(s);
                sp_promoted_w = r.promoted_a.(s);
              }
              :: !spans
          else
            events :=
              {
                ev_name = names.(r.name_id.(s));
                ev_tag = r.tag.(s);
                ev_t = r.rt0.(s) -. t.origin_s;
              }
              :: !events
        done;
        let spans =
          List.sort
            (fun a b ->
              match compare a.sp_t0 b.sp_t0 with
              | 0 -> compare a.sp_depth b.sp_depth
              | c -> c)
            !spans
        in
        let events = List.sort (fun a b -> compare a.ev_t b.ev_t) !events in
        let bounds =
          List.map (fun s -> (s.sp_t0, s.sp_t0 +. s.sp_dur)) spans
          @ List.map (fun e -> (e.ev_t, e.ev_t)) events
        in
        let first =
          List.fold_left (fun acc (a, _) -> Stdlib.min acc a) infinity bounds
        in
        let last =
          List.fold_left (fun acc (_, b) -> Stdlib.max acc b) 0. bounds
        in
        {
          dom_label = r.r_label;
          dom_dropped = dropped r;
          dom_first = (if first = infinity then 0. else first);
          dom_last = last;
          dom_spans = spans;
          dom_events = events;
        })
      recorders
  in
  let domains =
    List.stable_sort (fun a b -> compare a.dom_label b.dom_label) domains
  in
  {
    a_label = t.t_label;
    a_wall_started_at = t.wall_started_at;
    a_elapsed = now -. t.origin_s;
    a_dropped = List.fold_left (fun acc d -> acc + d.dom_dropped) 0 domains;
    a_domains = domains;
  }

(* ---------- JSON ---------- *)

let span_to_json s =
  Json.Obj
    [ ("name", Json.String s.sp_name);
      ("tag", Json.Int s.sp_tag);
      ("depth", Json.Int s.sp_depth);
      ("t0_s", Json.Float s.sp_t0);
      ("dur_s", Json.Float s.sp_dur);
      ("gc_minor", Json.Int s.sp_minor);
      ("gc_major", Json.Int s.sp_major);
      ("alloc_w", Json.Float s.sp_alloc_w);
      ("promoted_w", Json.Float s.sp_promoted_w) ]

let event_to_json e =
  Json.Obj
    [ ("name", Json.String e.ev_name);
      ("tag", Json.Int e.ev_tag);
      ("at_s", Json.Float e.ev_t) ]

let to_json a =
  Json.Obj
    [ ("timeline_version", Json.Int version);
      ("label", Json.String a.a_label);
      ("wall_started_at", Json.Float a.a_wall_started_at);
      ("elapsed_s", Json.Float a.a_elapsed);
      ("dropped", Json.Int a.a_dropped);
      ("domains",
       Json.List
         (List.map
            (fun d ->
              Json.Obj
                [ ("domain", Json.String d.dom_label);
                  ("dropped", Json.Int d.dom_dropped);
                  ("first_s", Json.Float d.dom_first);
                  ("last_s", Json.Float d.dom_last);
                  ("spans", Json.List (List.map span_to_json d.dom_spans));
                  ("events", Json.List (List.map event_to_json d.dom_events))
                ])
            a.a_domains)) ]

(* Scheduling-dependent lifecycle records: how many of these a run emits
   depends on pool warmth, core count and raw interleaving — never on
   the workload — so the determinism view below always drops them. *)
let lifecycle_names = [ "pool-start"; "pool-wait"; "steal"; "park"; "unpark" ]

(* The determinism view: all timing and GC numbers erased, spans and
   events pooled across domains and sorted by structure alone.  Two runs
   of the same deterministic workload must produce byte-identical
   normalized JSON whatever the domain interleaving was — and, because
   the lifecycle records above are always excluded, whatever the worker
   count or pool state was. *)
let normalized_json ?(exclude = []) a =
  let keep name =
    not (List.mem name lifecycle_names || List.mem name exclude)
  in
  let spans =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun s ->
            if keep s.sp_name then Some (s.sp_name, s.sp_tag, s.sp_depth)
            else None)
          d.dom_spans)
      a.a_domains
    |> List.sort compare
  in
  let events =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun e ->
            if keep e.ev_name then Some (e.ev_name, e.ev_tag) else None)
          d.dom_events)
      a.a_domains
    |> List.sort compare
  in
  Json.Obj
    [ ("timeline_version", Json.Int version);
      ("label", Json.String a.a_label);
      ("normalized", Json.Bool true);
      ("dropped", Json.Int a.a_dropped);
      ("spans",
       Json.List
         (List.map
            (fun (name, tag, depth) ->
              Json.Obj
                [ ("name", Json.String name); ("tag", Json.Int tag);
                  ("depth", Json.Int depth) ])
            spans));
      ("events",
       Json.List
         (List.map
            (fun (name, tag) ->
              Json.Obj [ ("name", Json.String name); ("tag", Json.Int tag) ])
            events)) ]

(* ---------- GC cost calibration ---------- *)

(* OCaml's runtime exposes collection *counts*, not collection *time*, so
   the GC share of a span is an estimate: force a few minor collections on
   a representatively half-full minor heap, time them, and price every
   observed collection at that per-collection cost.  The calibration runs
   once per process, off the hot path. *)
let minor_cost_s =
  lazy
    (let heap_words = (Gc.get ()).Gc.minor_heap_size in
     let sink = ref [] in
     let fill () =
       (* a list cell is 3 words; fill about half the minor heap *)
       sink := [];
       for _ = 1 to heap_words / 6 do
         sink := 1 :: !sink
       done
     in
     let rounds = 16 in
     let total = ref 0. in
     for _ = 1 to rounds do
       fill ();
       let t0 = Profile.now () in
       Gc.minor ();
       total := !total +. (Profile.now () -. t0)
     done;
     sink := [];
     !total /. float_of_int rounds)

(* ---------- utilization ---------- *)

type util = {
  u_window : float;
  u_busy : float;  (* sum of depth-0 span durations *)
  u_gc_est : float;  (* estimated collection time inside spans *)
  u_idle : float;  (* window - busy *)
  u_minor : int;
  u_major : int;
  u_by_name : (string * (int * float)) list;  (* name -> calls, total_s *)
}

let utilization_of d =
  let window = Stdlib.max 0. (d.dom_last -. d.dom_first) in
  let top = List.filter (fun s -> s.sp_depth = 0) d.dom_spans in
  (* busy = measure of the union of depth-0 intervals: grafted aggregate
     spans (record_span) can overlap measured ones, and double-counting
     would push busy past 100% of the window *)
  let busy =
    match top with
    | [] -> 0.
    | first :: _ ->
      let lo, hi, acc =
        List.fold_left
          (fun (lo, hi, acc) s ->
            let s0 = s.sp_t0 and s1 = s.sp_t0 +. s.sp_dur in
            if s0 > hi then (s0, s1, acc +. (hi -. lo))
            else (lo, Stdlib.max hi s1, acc))
          (first.sp_t0, first.sp_t0, 0.)
          top
      in
      acc +. (hi -. lo)
  in
  let minor = List.fold_left (fun acc s -> acc + s.sp_minor) 0 top in
  let major = List.fold_left (fun acc s -> acc + s.sp_major) 0 top in
  let gc_est =
    Stdlib.min busy (float_of_int minor *. Lazy.force minor_cost_s)
  in
  let by_name = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_name s.sp_name with
      | Some (calls, tot) ->
        Hashtbl.replace by_name s.sp_name (calls + 1, tot +. s.sp_dur)
      | None ->
        Hashtbl.add by_name s.sp_name (1, s.sp_dur);
        order := s.sp_name :: !order)
    d.dom_spans;
  {
    u_window = window;
    u_busy = busy;
    u_gc_est = gc_est;
    u_idle = Stdlib.max 0. (window -. busy);
    u_minor = minor;
    u_major = major;
    u_by_name =
      List.rev_map (fun n -> (n, Hashtbl.find by_name n)) !order;
  }

let utilization a =
  List.map (fun d -> (d.dom_label, utilization_of d)) a.a_domains

(* ---------- rendering ---------- *)

(* One row per domain across the merged window: '#' cells are mostly
   busy, '+' partially, '.' barely, ' ' idle; the right margin carries the
   busy/GC shares.  The Spacetime-style grid for domains instead of
   processes. *)
let pp_gantt ?(width = 64) ppf a =
  let span_end = Stdlib.max a.a_elapsed 1e-9 in
  let cell = span_end /. float_of_int width in
  Format.fprintf ppf "@[<v>timeline %s: %.3fs wall, %d domain(s)%s@,"
    a.a_label a.a_elapsed
    (List.length a.a_domains)
    (if a.a_dropped > 0 then
       Printf.sprintf " (%d record(s) dropped)" a.a_dropped
     else "");
  let label_w =
    List.fold_left
      (fun acc d -> Stdlib.max acc (String.length d.dom_label))
      6 a.a_domains
  in
  List.iter
    (fun d ->
      let u = utilization_of d in
      let row = Bytes.make width ' ' in
      List.iter
        (fun s ->
          if s.sp_depth = 0 && s.sp_dur > 0. then begin
            let lo = int_of_float (s.sp_t0 /. cell) in
            let hi =
              int_of_float (ceil ((s.sp_t0 +. s.sp_dur) /. cell)) - 1
            in
            for c = Stdlib.max 0 lo to Stdlib.min (width - 1) hi do
              (* busy fraction of this cell *)
              let c0 = float_of_int c *. cell
              and c1 = float_of_int (c + 1) *. cell in
              let overlap =
                Stdlib.min (s.sp_t0 +. s.sp_dur) c1 -. Stdlib.max s.sp_t0 c0
              in
              let frac = overlap /. cell in
              let prev = Bytes.get row c in
              let rank ch =
                match ch with '#' -> 3 | '+' -> 2 | '.' -> 1 | _ -> 0
              in
              let this =
                if frac >= 0.66 then '#'
                else if frac >= 0.33 then '+'
                else if frac > 0. then '.'
                else ' '
              in
              if rank this > rank prev then Bytes.set row c this
            done
          end)
        d.dom_spans;
      Format.fprintf ppf "%-*s |%s| busy %4.1f%%  gc ~%3.1f%%  %d minor/%d \
                          major@,"
        label_w d.dom_label (Bytes.to_string row)
        (100. *. u.u_busy /. Stdlib.max 1e-9 span_end)
        (100. *. u.u_gc_est /. Stdlib.max 1e-9 span_end)
        u.u_minor u.u_major)
    a.a_domains;
  Format.fprintf ppf "%-*s  0s%*s%.3fs  ('#' busy, '+' partial, '.' \
                      trace, ' ' idle)@]"
    label_w "" (width - 6) "" a.a_elapsed

let pp_utilization ppf a =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (label, u) ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf
        "%s: window %.4fs  busy %.4fs (%.1f%%)  gc ~%.4fs  idle %.4fs  \
         [%d minor, %d major]"
        label u.u_window u.u_busy
        (100. *. u.u_busy /. Stdlib.max 1e-9 u.u_window)
        u.u_gc_est u.u_idle u.u_minor u.u_major;
      let width =
        List.fold_left
          (fun acc (name, _) -> Stdlib.max acc (String.length name))
          20 u.u_by_name
      in
      List.iter
        (fun (name, (calls, tot)) ->
          Format.fprintf ppf "@,  %-*s %5d call(s)  %.4fs" width name calls tot)
        u.u_by_name)
    (utilization a);
  Format.pp_close_box ppf ()

(* Folded-stack lines for external flamegraph tools:
   [domain;outer;inner <exclusive-microseconds>], one line per distinct
   stack, summed.  Stacks are reconstructed from span depths in
   chronological order. *)
let folded a =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let add stack v =
    match Hashtbl.find_opt tbl stack with
    | Some acc -> Hashtbl.replace tbl stack (acc +. v)
    | None ->
      Hashtbl.add tbl stack v;
      order := stack :: !order
  in
  List.iter
    (fun d ->
      (* exclusive time per span = dur - sum of direct children, found by
         a containment scan; merged artifacts hold few spans, so the
         quadratic scan is irrelevant next to the JSON encode *)
      let spans = Array.of_list d.dom_spans in
      let n = Array.length spans in
      for i = 0 to n - 1 do
        let s = spans.(i) in
        let s_end = s.sp_t0 +. s.sp_dur in
        let child_time = ref 0. in
        for j = 0 to n - 1 do
          let c = spans.(j) in
          if
            j <> i
            && c.sp_depth = s.sp_depth + 1
            && c.sp_t0 >= s.sp_t0 -. 1e-12
            && c.sp_t0 +. c.sp_dur <= s_end +. 1e-12
          then child_time := !child_time +. c.sp_dur
        done;
        (* the path to the root: nearest enclosing span per depth *)
        let path = ref [] in
        let depth = ref (s.sp_depth - 1) in
        for j = i - 1 downto 0 do
          let c = spans.(j) in
          if
            !depth >= 0 && c.sp_depth = !depth
            && c.sp_t0 <= s.sp_t0 +. 1e-12
            && c.sp_t0 +. c.sp_dur >= s_end -. 1e-12
          then begin
            path := c.sp_name :: !path;
            decr depth
          end
        done;
        let stack =
          String.concat ";" ((d.dom_label :: !path) @ [ s.sp_name ])
        in
        add stack (Stdlib.max 0. (s.sp_dur -. !child_time))
      done)
    a.a_domains;
  List.rev_map
    (fun stack ->
      Printf.sprintf "%s %.0f" stack (Hashtbl.find tbl stack *. 1e6))
    !order

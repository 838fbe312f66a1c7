open Rlfd_obs

(* OCaml caps live domains at 128; keep headroom for the main domain and
   anything the host program spawns itself. *)
let max_helpers_limit = 126

(* Set on every pool domain, and on the caller for the duration of its
   body: a nested [run] sees it and executes inline instead of
   deadlocking on the pool's one-run-at-a-time gate. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

type job = {
  body : slot:int -> unit;
  slots : int;  (* participant slots this run may hand out *)
  mutable next_slot : int;  (* 0 is the caller; helpers claim from 1 *)
  mutable active : int;  (* participants currently inside [body] *)
  mutable closed : bool;  (* caller finished; no further claims *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
}

type state = {
  m : Mutex.t;
  wake : Condition.t;  (* parked helpers wait here for the next run *)
  quiet : Condition.t;  (* callers wait here for [active = 0] / [not busy] *)
  mutable job : job option;
  mutable helpers : int;
  mutable spawned : int;
  mutable busy : bool;
}

let st =
  {
    m = Mutex.create ();
    wake = Condition.create ();
    quiet = Condition.create ();
    job = None;
    helpers = 0;
    spawned = 0;
    busy = false;
  }

let recommended_workers () = Stdlib.max 1 (Domain.recommended_domain_count ())

let cap_override = Atomic.make (-1) (* -1 = automatic *)

let env_cap =
  lazy
    (match Sys.getenv_opt "RLFD_POOL_MAX_HELPERS" with
    | None -> None
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> Some n
      | _ -> None))

let max_helpers () =
  let n =
    match Atomic.get cap_override with
    | n when n >= 0 -> n
    | _ -> (
      match Lazy.force env_cap with
      | Some n -> n
      | None -> recommended_workers () - 1)
  in
  Stdlib.min n max_helpers_limit

let set_max_helpers = function
  | None -> Atomic.set cap_override (-1)
  | Some n ->
    if n < 0 then invalid_arg "Pool.set_max_helpers: negative cap";
    Atomic.set cap_override n

let spawned_total () = Mutex.protect st.m (fun () -> st.spawned)

type stats = { participants : int; wait_s : float }

let record_failure j exn =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.protect st.m (fun () ->
      if j.failed = None then j.failed <- Some (exn, bt))

(* Run the body for one claimed slot, then retire from the run.  The
   retirement is the publication point: the final [active] decrement
   under the mutex is what makes every participant's plain-field writes
   visible to the caller waiting on [quiet]. *)
let run_body j slot =
  (try j.body ~slot with exn -> record_failure j exn);
  Mutex.lock st.m;
  j.active <- j.active - 1;
  if j.active = 0 then Condition.broadcast st.quiet;
  Mutex.unlock st.m

let rec helper_loop () =
  Mutex.lock st.m;
  let rec claim () =
    match st.job with
    | Some j when (not j.closed) && j.next_slot < j.slots ->
      let slot = j.next_slot in
      j.next_slot <- slot + 1;
      j.active <- j.active + 1;
      (j, slot)
    | _ ->
      Condition.wait st.wake st.m;
      claim ()
  in
  let j, slot = claim () in
  Mutex.unlock st.m;
  run_body j slot;
  helper_loop ()

(* Under [st.m].  The fresh domain pre-claims its slot here, in the
   caller's critical section, so it is guaranteed to participate in the
   run that spawned it — parked helpers merely race it. *)
let spawn_helper j =
  let slot = j.next_slot in
  j.next_slot <- slot + 1;
  j.active <- j.active + 1;
  st.helpers <- st.helpers + 1;
  st.spawned <- st.spawned + 1;
  let (_ : unit Domain.t) =
    Domain.spawn (fun () ->
        Domain.DLS.set inside_pool true;
        run_body j slot;
        helper_loop ())
  in
  ()

let run ~workers ?(on_spawn = fun (_ : int) -> ()) body =
  let inline () =
    body ~slot:0;
    { participants = 1; wait_s = 0. }
  in
  if workers <= 1 || Domain.DLS.get inside_pool then inline ()
  else begin
    let slots = Stdlib.min workers (1 + max_helpers ()) in
    if slots <= 1 then inline ()
    else begin
      Mutex.lock st.m;
      while st.busy do
        Condition.wait st.quiet st.m
      done;
      st.busy <- true;
      let j =
        { body; slots; next_slot = 1; active = 0; closed = false;
          failed = None }
      in
      st.job <- Some j;
      let to_spawn = Stdlib.max 0 (slots - 1 - st.helpers) in
      for _ = 1 to to_spawn do
        on_spawn j.next_slot;
        spawn_helper j
      done;
      if st.helpers > to_spawn then Condition.broadcast st.wake;
      Mutex.unlock st.m;
      Domain.DLS.set inside_pool true;
      (try body ~slot:0 with exn -> record_failure j exn);
      Domain.DLS.set inside_pool false;
      let t_wait = Profile.now () in
      Mutex.lock st.m;
      j.closed <- true;
      while j.active > 0 do
        Condition.wait st.quiet st.m
      done;
      let participants = j.next_slot in
      st.job <- None;
      st.busy <- false;
      Condition.broadcast st.quiet;
      Mutex.unlock st.m;
      (match j.failed with
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ());
      { participants; wait_s = Profile.now () -. t_wait }
    end
  end

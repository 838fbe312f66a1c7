(* The campaign subsystem: job-space decoding, checkpoint round-trips, and
   the engine's worker-count-independence and resume guarantees. *)

open Helpers
module Spec = Rlfd_campaign.Spec
module Checkpoint = Rlfd_campaign.Checkpoint
module Engine = Rlfd_campaign.Engine
module Json = Rlfd_obs.Json
module Trace = Rlfd_obs.Trace

let int_codec =
  {
    Engine.encode = (fun v -> Json.Int v);
    decode =
      (fun j ->
        match Json.to_int_opt j with
        | Some v -> Ok v
        | None -> Error "not an int");
  }

(* The completion log of an int campaign at [path]. *)
let ck ?(resume = false) path = { Engine.path; codec = int_codec; resume }

let spec2 () =
  Spec.make ~name:"unit"
    ~axes:[ ("fd", [ "P"; "S" ]); ("sched", [ "fair"; "random"; "chaos" ]) ]
    ~seeds:[ 7; 8 ] ()

(* A deterministic workload whose value encodes everything a job was given,
   so any cross-worker or resume confusion shows up in the result itself. *)
let fingerprint ~rng ~metrics:_ i =
  (i * 1_000_003) + Rlfd_kernel.Rng.int rng 1_000_000

let run_fingerprint ?workers ?checkpoint ?sink ~total () =
  Engine.run ?workers ?checkpoint ?sink ~name:"fingerprint" ~seed:2002 ~total
    ~label:string_of_int fingerprint

let tmp_file name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists path then Sys.remove path;
  path

(* Simulate a kill mid-write: keep the checkpoint's first [lines] lines
   (header included), then append [torn], a half-written entry. *)
let truncate_checkpoint path ~lines ~torn =
  let ic = open_in path in
  let kept = List.init lines (fun _ -> input_line ic) in
  close_in ic;
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    kept;
  output_string oc torn;
  close_out oc

(* ---------- Spec ---------- *)

let spec_tests =
  [
    test "size is the product of axis lengths and seeds" (fun () ->
        Alcotest.(check int) "2*3*2" 12 (Spec.size (spec2 ())));
    test "decode covers every combination exactly once" (fun () ->
        let spec = spec2 () in
        let labels = List.map Spec.label (Spec.jobs spec) in
        Alcotest.(check int) "all jobs" 12 (List.length labels);
        Alcotest.(check int) "distinct labels" 12
          (List.length (List.sort_uniq compare labels)));
    test "index round-trips through the decoded job" (fun () ->
        let spec = spec2 () in
        List.iter
          (fun (j : Spec.job) ->
            Alcotest.(check int) "index" j.index (Spec.job spec j.index).index)
          (Spec.jobs spec));
    test "seeds vary fastest, first axis slowest" (fun () ->
        let spec = spec2 () in
        let j0 = Spec.job spec 0 and j1 = Spec.job spec 1 in
        Alcotest.(check int) "seed of job 0" 7 j0.Spec.seed;
        Alcotest.(check int) "seed of job 1" 8 j1.Spec.seed;
        Alcotest.(check string) "job 0 fd" "P" (Spec.value j0 "fd");
        Alcotest.(check string) "last job fd" "S"
          (Spec.value (Spec.job spec 11) "fd"));
    test "label shows coordinates and seed" (fun () ->
        Alcotest.(check string) "label" "P/fair/seed=7"
          (Spec.label (Spec.job (spec2 ()) 0)));
    test "invalid specs are rejected" (fun () ->
        let raises f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        raises (fun () -> Spec.make ~axes:[ ("a", []) ] ~seeds:[ 1 ] ());
        raises (fun () -> Spec.make ~axes:[] ~seeds:[] ());
        raises (fun () ->
            Spec.make ~axes:[ ("a", [ "x" ]); ("a", [ "y" ]) ] ~seeds:[ 1 ] ());
        raises (fun () -> Spec.job (spec2 ()) 12));
  ]

(* ---------- Checkpoint ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* A valid checkpoint, as the writers produce it. *)
let ck_header = { Checkpoint.name = "fuzz"; seed = 3; total = 4 }

let ck_entries =
  List.map
    (fun job ->
      { Checkpoint.job; label = string_of_int job; elapsed_s = 0.25;
        value = Json.Obj [ ("v", Json.Int job) ] })
    [ 0; 1; 3 ]

let ck_text =
  let path = tmp_file "rlfd-ck-fuzz-valid.jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      Checkpoint.write_header oc ck_header;
      List.iter (Checkpoint.write_entry oc) ck_entries);
  let text = read_file path in
  Sys.remove path;
  text

let checkpoint_tests =
  [
    test "header and entries round-trip" (fun () ->
        let path = tmp_file "rlfd-ck-roundtrip.jsonl" in
        let oc = open_out path in
        Checkpoint.write_header oc
          { Checkpoint.name = "c"; seed = 5; total = 3 };
        Checkpoint.write_entry oc
          { Checkpoint.job = 0; label = "a"; elapsed_s = 0.5; value = Json.Int 1 };
        Checkpoint.write_entry oc
          { Checkpoint.job = 2; label = "b"; elapsed_s = 0.25; value = Json.Int 9 };
        close_out oc;
        (match Checkpoint.load path with
        | Error e -> Alcotest.fail e
        | Ok (h, entries, skipped) ->
          Alcotest.(check string) "name" "c" h.Checkpoint.name;
          Alcotest.(check int) "seed" 5 h.Checkpoint.seed;
          Alcotest.(check int) "total" 3 h.Checkpoint.total;
          Alcotest.(check int) "entries" 2 (List.length entries);
          Alcotest.(check int) "skipped" 0 skipped;
          Alcotest.(check int) "job ids" 2
            (List.length
               (List.filter
                  (fun (e : Checkpoint.entry) -> e.job = 0 || e.job = 2)
                  entries)));
        Sys.remove path);
    test "a torn final line is skipped and counted" (fun () ->
        let path = tmp_file "rlfd-ck-torn.jsonl" in
        let oc = open_out path in
        Checkpoint.write_header oc
          { Checkpoint.name = "c"; seed = 5; total = 3 };
        Checkpoint.write_entry oc
          { Checkpoint.job = 1; label = "a"; elapsed_s = 0.; value = Json.Int 1 };
        output_string oc "{\"job\":2,\"label\":\"torn";
        close_out oc;
        (match Checkpoint.load path with
        | Error e -> Alcotest.fail e
        | Ok (_, entries, skipped) ->
          Alcotest.(check int) "entries" 1 (List.length entries);
          Alcotest.(check int) "skipped" 1 skipped);
        Sys.remove path);
    test "a non-checkpoint file is an error, not a crash" (fun () ->
        let path = tmp_file "rlfd-ck-garbage.jsonl" in
        let oc = open_out path in
        output_string oc "not json at all\n";
        close_out oc;
        (match Checkpoint.load path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected Error");
        Sys.remove path);
    qtest_reader "load never raises on a corrupted checkpoint file" ~text:ck_text
      ~read:(fun text ->
        let path = tmp_file "rlfd-ck-fuzz.jsonl" in
        write_file path text;
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            Checkpoint.load path))
      ~roundtrip:(( = ) (Ok (ck_header, ck_entries, 0)));
    test "load of a directory is an Error, not an exception" (fun () ->
        Alcotest.(check bool) "error" true
          (Result.is_error (Checkpoint.load (Filename.get_temp_dir_name ()))));
  ]

(* ---------- Engine determinism ---------- *)

let report_fingerprint report = Engine.report_lines int_codec report

let engine_tests =
  [
    test "report lines are byte-identical at 1 and 4 workers" (fun () ->
        let serial = run_fingerprint ~workers:1 ~total:23 () in
        let parallel = run_fingerprint ~workers:4 ~total:23 () in
        Alcotest.(check (list string))
          "identical reports" (report_fingerprint serial)
          (report_fingerprint parallel));
    test "outcomes are sorted and complete" (fun () ->
        let r = run_fingerprint ~workers:4 ~total:11 () in
        Alcotest.(check (list int)) "job order" (List.init 11 Fun.id)
          (List.map (fun o -> o.Engine.job) r.Engine.outcomes));
    test "progress events climb from the recovered count to total"
      (fun () ->
        let check_events what ~first sink =
          let events =
            List.filter_map
              (function
                | Trace.Progress { label; done_; total; _ } ->
                  Alcotest.(check string) (what ^ ": label") "fingerprint"
                    label;
                  Alcotest.(check (option int)) (what ^ ": total") (Some 15)
                    total;
                  Some done_
                | _ -> None)
              (Trace.contents sink)
          in
          Alcotest.(check int) (what ^ ": first done_") first (List.hd events);
          Alcotest.(check (list int))
            (what ^ ": done_ never decreases")
            (List.sort compare events) events;
          Alcotest.(check int) (what ^ ": last done_") 15
            (List.nth events (List.length events - 1))
        in
        List.iter
          (fun workers ->
            let sink = Trace.memory () in
            let (_ : int Engine.report) =
              run_fingerprint ~workers ~sink ~total:15 ()
            in
            check_events (Printf.sprintf "%d worker(s)" workers) ~first:0 sink)
          [ 1; 3 ];
        let path = tmp_file "rlfd-ck-progress.jsonl" in
        let (_ : int Engine.report) =
          run_fingerprint ~checkpoint:(ck path) ~total:15 ()
        in
        truncate_checkpoint path ~lines:7 ~torn:"";
        let sink = Trace.memory () in
        let resumed =
          run_fingerprint ~workers:2 ~checkpoint:(ck ~resume:true path)
            ~sink ~total:15 ()
        in
        Sys.remove path;
        Alcotest.(check int) "recovered jobs" 6 resumed.Engine.resumed;
        check_events "resumed" ~first:resumed.Engine.resumed sink);
    test "more workers than jobs still covers every job" (fun () ->
        let r = run_fingerprint ~workers:8 ~total:3 () in
        Alcotest.(check int) "outcomes" 3 (List.length r.Engine.outcomes));
    test "total = 0 yields an empty report" (fun () ->
        let r = run_fingerprint ~workers:2 ~total:0 () in
        Alcotest.(check int) "outcomes" 0 (List.length r.Engine.outcomes));
    test "a job exception surfaces after the pool joins" (fun () ->
        match
          Engine.run ~workers:2 ~name:"boom" ~seed:1 ~total:8
            ~label:string_of_int
            (fun ~rng:_ ~metrics:_ i ->
              if i = 5 then failwith "job 5 exploded" else i)
        with
        | exception Failure msg ->
          Alcotest.(check string) "message" "job 5 exploded" msg
        | _ -> Alcotest.fail "expected Failure");
  ]

(* ---------- Checkpoint / resume through the engine ---------- *)

let resume_tests =
  [
    test "resume after truncation reproduces the uninterrupted report"
      (fun () ->
        let full = run_fingerprint ~workers:2 ~total:14 () in
        let path = tmp_file "rlfd-ck-resume.jsonl" in
        let _ =
          run_fingerprint ~workers:1 ~checkpoint:(ck path) ~total:14 ()
        in
        (* keep the header + 5 entries, then a torn line *)
        truncate_checkpoint path ~lines:6 ~torn:"{\"job\":11,\"label\":\"torn";
        let resumed =
          run_fingerprint ~workers:3 ~checkpoint:(ck ~resume:true path)
            ~total:14 ()
        in
        Alcotest.(check (list string))
          "identical reports" (report_fingerprint full)
          (report_fingerprint resumed);
        Alcotest.(check int) "resumed jobs" 5 resumed.Engine.resumed;
        Alcotest.(check int) "torn line skipped" 1 resumed.Engine.skipped;
        (* the repaired checkpoint holds every job exactly once *)
        (match Checkpoint.load path with
        | Error e -> Alcotest.fail e
        | Ok (_, entries, _) ->
          let ids =
            List.sort compare
              (List.map (fun (e : Checkpoint.entry) -> e.job) entries)
          in
          Alcotest.(check (list int)) "no duplicates" (List.init 14 Fun.id) ids);
        Sys.remove path);
    test "resuming a finished campaign re-runs nothing" (fun () ->
        let path = tmp_file "rlfd-ck-finished.jsonl" in
        let first =
          run_fingerprint ~workers:2 ~checkpoint:(ck path) ~total:9 ()
        in
        let again =
          run_fingerprint ~workers:2 ~checkpoint:(ck ~resume:true path)
            ~total:9 ()
        in
        Alcotest.(check int) "all resumed" 9 again.Engine.resumed;
        Alcotest.(check (list string))
          "identical reports" (report_fingerprint first)
          (report_fingerprint again);
        Sys.remove path);
    test "a mismatched header refuses to resume" (fun () ->
        let path = tmp_file "rlfd-ck-mismatch.jsonl" in
        let _ =
          run_fingerprint ~workers:1 ~checkpoint:(ck path) ~total:4 ()
        in
        (match
           run_fingerprint ~workers:1 ~checkpoint:(ck ~resume:true path)
             ~total:5 ()
         with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure on total mismatch");
        Sys.remove path);
    test "another spec's checkpoint with the same name, seed and size is refused"
      (fun () ->
        let path = tmp_file "rlfd-ck-foreign.jsonl" in
        let spec fd = Spec.make ~name:"same" ~axes:[ ("fd", [ fd ]) ] ~seeds:[ 1; 2 ] () in
        let _ =
          Engine.run_spec ~checkpoint:(ck path) ~seed:2002 (spec "P")
            (fun ~rng:_ ~metrics:_ job -> job.Spec.index)
        in
        let before = read_file path in
        let ran = ref false in
        (match
           Engine.run_spec ~checkpoint:(ck ~resume:true path)
             ~seed:2002 (spec "S")
             (fun ~rng:_ ~metrics:_ _ ->
               ran := true;
               0)
         with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure on another spec's labels");
        Alcotest.(check bool) "no job ran" false !ran;
        Alcotest.(check string) "file untouched" before (read_file path);
        Sys.remove path);
  ]

(* ---------- run_spec ---------- *)

let run_spec_tests =
  [
    test "run_spec hands each job its decoded coordinates" (fun () ->
        let spec = spec2 () in
        let report =
          Engine.run_spec ~workers:2 ~seed:2002 spec
            (fun ~rng:_ ~metrics:_ job -> Spec.label job)
        in
        List.iter
          (fun o ->
            Alcotest.(check string) "label matches value" o.Engine.label
              o.Engine.value)
          report.Engine.outcomes);
  ]

(* ---------- a recorded campaign grid ---------- *)

(* The job of [fdsim campaign] at n = 5: the 8 pattern families x {P,
   P-delayed, S} x {fair, random} x seeds {1, 2}, 96 short ct-strong runs
   to decision.  A line holds a job's counts, its totality violations and
   the MD5 of its run artifact, which carries every choice with its
   buffer id and the marshalled final states; so it pins the schedule,
   the buffer's pending order and ct-strong's map shapes.
   [fixtures/campaign_grid.txt] holds these lines as computed before the
   per-destination buffer and the fast paths of the alive list,
   [Pattern.crashed_by], ct-strong and [Totality.check]. *)
let grid_spec () =
  Spec.make ~name:"grid"
    ~axes:
      [ ("family",
         List.map (fun f -> f.Rlfd_fd.Pattern.Family.name) Rlfd_fd.Pattern.Family.all);
        ("fd", [ "P"; "P-delayed"; "S" ]); ("sched", [ "fair"; "random" ]) ]
    ~seeds:[ 1; 2 ] ()

let grid_line (job : Spec.job) =
  let open Rlfd_kernel in
  let open Rlfd_fd in
  let open Rlfd_sim in
  let n = 5 and horizon = 6000 in
  let proposals p = 100 + Pid.to_int p in
  let axis = Spec.value job and seed = job.Spec.seed in
  let family =
    List.find (fun f -> f.Pattern.Family.name = axis "family") Pattern.Family.all
  in
  let detector =
    match axis "fd" with
    | "P" -> Perfect.canonical
    | "P-delayed" -> Perfect.delayed ~lag:10
    | _ -> Strong.realistic
  in
  let scheduler =
    if axis "sched" = "fair" then Scheduler.fair ()
    else Scheduler.random ~seed ~lambda_bias:0.3
  in
  let pattern =
    Pattern.Family.generate family ~n ~horizon:(Time.of_int 300)
      (Rng.derive ~seed ~salts:[ 0x7A ])
  in
  let r =
    Runner.run ~pattern ~detector ~scheduler ~horizon:(Time.of_int horizon)
      ~until:(Runner.stop_when_all_correct_output pattern)
      (Rlfd_algo.Ct_strong.automaton ~proposals)
  in
  let artifact =
    Replay.runner_artifact ~scope:(Json.String (Spec.label job)) ~queries:[] r
  in
  Printf.sprintf "%d steps=%d sent=%d delivered=%d end=%d violations=%d md5=%s"
    job.Spec.index r.Runner.steps r.Runner.sent r.Runner.delivered
    (Time.to_int r.Runner.end_time)
    (List.length (Rlfd_algo.Totality.check r))
    (Digest.to_hex
       (Digest.string (String.concat "\n" (Rlfd_obs.Recorder.to_lines artifact))))

let grid_tests =
  [
    test "the campaign grid reproduces its recorded lines" (fun () ->
        let recorded =
          String.split_on_char '\n'
            (String.trim (read_file (Filename.concat "fixtures" "campaign_grid.txt")))
        in
        Alcotest.(check int) "96 jobs" 96 (List.length recorded);
        Alcotest.(check (list string))
          "every job's counts and artifact digest" recorded
          (List.map grid_line (Spec.jobs (grid_spec ()))));
  ]

(* ---------- timeline collection ---------- *)

module Timeline = Rlfd_obs.Timeline

let timeline_tests =
  [
    test "worker spans cover jobs, queue-wait and publish" (fun () ->
        let tl = Timeline.create ~label:"cov" () in
        let path = tmp_file "rlfd-timeline-ckpt.jsonl" in
        let (_ : int Engine.report) =
          Engine.run ~workers:2 ~timeline:tl ~checkpoint:(ck path)
            ~name:"fingerprint" ~seed:2002 ~total:12 ~label:string_of_int
            fingerprint
        in
        Sys.remove path;
        let a = Timeline.merge tl in
        let count name =
          List.fold_left
            (fun acc (d : Timeline.domain_rec) ->
              acc
              + List.length
                  (List.filter
                     (fun (s : Timeline.span_rec) -> s.sp_name = name)
                     d.dom_spans))
            0 a.Timeline.a_domains
        in
        Alcotest.(check int) "one job span per job" 12 (count "job");
        (* adaptive batch boundaries depend on timing, but every batch
           records exactly one of each batch-level span *)
        let batches = count "job-run" in
        Alcotest.(check bool) "at least one batch" true (batches > 0);
        List.iter
          (fun name ->
            Alcotest.(check int) ("one " ^ name ^ " per batch") batches
              (count name))
          [ "queue-wait"; "publish"; "checkpoint-append" ];
        Alcotest.(check int) "nothing dropped" 0 a.Timeline.a_dropped);
    test "report is unchanged by timeline collection" (fun () ->
        let with_tl =
          let tl = Timeline.create ~label:"x" () in
          Engine.run ~workers:2 ~timeline:tl ~name:"fingerprint" ~seed:2002
            ~total:12 ~label:string_of_int fingerprint
        in
        let without = run_fingerprint ~workers:2 ~total:12 () in
        Alcotest.(check (list int)) "same values"
          (List.map (fun o -> o.Engine.value) without.Engine.outcomes)
          (List.map (fun o -> o.Engine.value) with_tl.Engine.outcomes));
  ]

(* ---------- the persistent pool ---------- *)

module Pool = Rlfd_campaign.Pool

(* Force real helper domains (the 1-core CI container would otherwise cap
   the pool at zero and run everything inline), restore automatic sizing
   afterwards.  Surplus helpers spawned here just park for the rest of
   the process — by design. *)
let with_cap n f =
  Pool.set_max_helpers (Some n);
  Fun.protect ~finally:(fun () -> Pool.set_max_helpers None) f

(* A job whose cost varies per job but depends only on the job's own rng
   stream — the adversarial input for adaptive batching + stealing. *)
let lumpy ~rng ~metrics:_ i =
  let spin = Rlfd_kernel.Rng.int rng 2000 in
  let acc = ref (i + 1) in
  for _ = 1 to spin do
    acc := (!acc * 1103515245) + 12345
  done;
  (i * 1_000_003) lxor (!acc land 0xFFFFF)

let pool_tests =
  [
    qtest ~count:8
      "random job costs: reports and checkpoint logs are byte-identical at \
       workers 1/2/4/8"
      QCheck.small_int
      (fun seed ->
        with_cap 3 (fun () ->
            let seed = abs seed in
            let total = 9 + (seed mod 14) in
            let run workers =
              let path =
                tmp_file (Printf.sprintf "rlfd-pool-det-%d.jsonl" workers)
              in
              let r =
                Engine.run ~workers ~checkpoint:(ck path)
                  ~name:"pool-det" ~seed ~total ~label:string_of_int lumpy
              in
              (* the checkpoint log is completion-ordered and carries wall
                 times; canonicalize to its order- and timing-free content *)
              let log =
                match Checkpoint.load path with
                | Error e -> Alcotest.fail e
                | Ok (_, entries, _) ->
                  List.sort compare
                    (List.map
                       (fun (e : Checkpoint.entry) ->
                         (e.job, e.label, Json.to_string e.value))
                       entries)
              in
              Sys.remove path;
              (Engine.report_lines int_codec r, log)
            in
            let reference = run 1 in
            List.for_all (fun w -> run w = reference) [ 2; 4; 8 ]));
    test "orphan ranges are drained by steals and counted" (fun () ->
        (* cap 0: the caller is the only participant, so every batch taken
           from worker slots 1..3 must be a steal *)
        with_cap 0 (fun () ->
            let r =
              Engine.run ~workers:4 ~name:"steals" ~seed:5 ~total:12
                ~label:string_of_int lumpy
            in
            Alcotest.(check bool)
              "at least one steal per orphan range" true
              (r.Engine.steals >= 3);
            Alcotest.(check int) "report agrees" 1 r.Engine.pool_domains));
    test "back-to-back runs reuse the pool: no second spawn" (fun () ->
        with_cap 2 (fun () ->
            let go () =
              Engine.run ~workers:3 ~name:"reuse" ~seed:9 ~total:18
                ~label:string_of_int lumpy
            in
            let first = go () in
            let spawned_after_first = Pool.spawned_total () in
            let second = go () in
            Alcotest.(check int) "warm pool spawns nothing"
              spawned_after_first (Pool.spawned_total ());
            Alcotest.(check (list string))
              "identical reports" (report_fingerprint first)
              (report_fingerprint second)));
    test "resume after truncation is exact under real helpers" (fun () ->
        with_cap 2 (fun () ->
            let full =
              Engine.run ~workers:4 ~name:"pool-resume" ~seed:11 ~total:13
                ~label:string_of_int lumpy
            in
            let path = tmp_file "rlfd-pool-resume.jsonl" in
            let _ =
              Engine.run ~workers:4 ~checkpoint:(ck path)
                ~name:"pool-resume" ~seed:11 ~total:13 ~label:string_of_int
                lumpy
            in
            (* keep the header + 4 entries, then a torn line *)
            truncate_checkpoint path ~lines:5
              ~torn:"{\"job\":9,\"label\":\"torn";
            let resumed =
              Engine.run ~workers:4 ~checkpoint:(ck ~resume:true path)
                ~name:"pool-resume" ~seed:11 ~total:13
                ~label:string_of_int lumpy
            in
            Sys.remove path;
            Alcotest.(check int) "recovered entries" 4 resumed.Engine.resumed;
            Alcotest.(check (list string))
              "identical reports" (report_fingerprint full)
              (report_fingerprint resumed)));
    test "adaptive batching keeps the normalized job view identical"
      (fun () ->
        (* batch boundaries are timing-dependent, so the batch-level
           spans are excluded and the per-job structure must still match
           exactly across worker counts *)
        with_cap 2 (fun () ->
            let batch_level = [ "job-run"; "queue-wait"; "publish" ] in
            let at workers =
              let tl = Timeline.create ~capacity:65536 ~label:"adet" () in
              let (_ : int Engine.report) =
                Engine.run ~workers ~timeline:tl ~name:"adet" ~seed:3
                  ~total:17 ~label:string_of_int lumpy
              in
              Json.to_string
                (Timeline.normalized_json ~exclude:batch_level
                   (Timeline.merge tl))
            in
            let one = at 1 in
            Alcotest.(check string) "1 = 2 workers" one (at 2);
            Alcotest.(check string) "1 = 4 workers" one (at 4)));
  ]

let () =
  Alcotest.run "campaign"
    [
      suite "spec" spec_tests;
      suite "checkpoint" checkpoint_tests;
      suite "engine" engine_tests;
      suite "resume" resume_tests;
      suite "run-spec" run_spec_tests;
      suite "grid" grid_tests;
      suite "timeline" timeline_tests;
      suite "pool" pool_tests;
    ]

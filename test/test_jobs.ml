(* lib/jobs: forked worker pool, result cache, determinism.

   The pool's contract is behavioral, so every test drives the real thing:
   real forks, real SIGKILLs, a real on-disk cache in a temp directory. *)

let tmpdir () =
  let d = Filename.temp_file "jobs_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let get (r : _ Jobs.Pool.result) =
  match r.Jobs.Pool.outcome with
  | Jobs.Pool.Done v -> v
  | Jobs.Pool.Failed m -> Alcotest.failf "unexpected Failed: %s" m
  | Jobs.Pool.Timed_out t -> Alcotest.failf "unexpected Timed_out %.2f" t

(* --- cache ----------------------------------------------------------------- *)

let test_cache_key_stability () =
  let d1 = tmpdir () and d2 = tmpdir () in
  let c1 = Jobs.Cache.create ~salt:"s1" ~dir:d1 () in
  let c2 = Jobs.Cache.create ~salt:"s1" ~dir:d2 () in
  let c3 = Jobs.Cache.create ~salt:"s2" ~dir:d1 () in
  (* the content address depends only on (salt, key) — never on the
     directory, the process, or anything drawn from the environment *)
  Alcotest.(check string) "same salt+key -> same address"
    (Jobs.Cache.key c1 "table2/x") (Jobs.Cache.key c2 "table2/x");
  Alcotest.(check bool) "different salt -> different address" false
    (Jobs.Cache.key c1 "table2/x" = Jobs.Cache.key c3 "table2/x");
  Alcotest.(check bool) "different key -> different address" false
    (Jobs.Cache.key c1 "table2/x" = Jobs.Cache.key c1 "table2/y")

let test_cache_roundtrip () =
  let dir = tmpdir () in
  let c = Jobs.Cache.create ~salt:"t" ~dir () in
  Alcotest.(check (option (list int))) "miss on empty" None
    (Jobs.Cache.find c "k");
  Jobs.Cache.store c "k" [ 1; 2; 3 ];
  Alcotest.(check (option (list int))) "roundtrip" (Some [ 1; 2; 3 ])
    (Jobs.Cache.find c "k");
  Alcotest.(check int) "one hit" 1 c.Jobs.Cache.hits;
  Alcotest.(check int) "one miss" 1 c.Jobs.Cache.misses;
  (* a second cache over the same directory and salt sees the entry: this
     is the across-runs stability the experiment matrix relies on *)
  let c' = Jobs.Cache.create ~salt:"t" ~dir () in
  Alcotest.(check (option (list int))) "second run hits" (Some [ 1; 2; 3 ])
    (Jobs.Cache.find c' "k");
  Jobs.Cache.clear ~dir ();
  Alcotest.(check (option (list int))) "cleared" None (Jobs.Cache.find c' "k")

let test_cache_corrupt_recovery () =
  let dir = tmpdir () in
  let c = Jobs.Cache.create ~salt:"t" ~dir () in
  Jobs.Cache.store c "k" [ 1; 2; 3 ];
  (* tear the entry: a crashed writer or disk corruption leaves bytes that
     exist but do not unmarshal *)
  let p = Jobs.Cache.path c "k" in
  let oc = open_out_bin p in
  output_string oc "not a marshalled value";
  close_out oc;
  Alcotest.(check (option (list int))) "corrupt entry reads as a miss" None
    (Jobs.Cache.find c "k");
  Alcotest.(check int) "corruption counted" 1 c.Jobs.Cache.corrupt;
  Alcotest.(check bool) "poisoned file deleted on the spot" false
    (Sys.file_exists p);
  (* the slot heals: recompute + store, and the next find hits again *)
  Jobs.Cache.store c "k" [ 4; 5 ];
  Alcotest.(check (option (list int))) "next store heals the slot"
    (Some [ 4; 5 ]) (Jobs.Cache.find c "k");
  Alcotest.(check int) "no further corruption" 1 c.Jobs.Cache.corrupt

let test_cache_prune_lru () =
  let dir = tmpdir () in
  let c = Jobs.Cache.create ~salt:"t" ~dir () in
  let payload i = String.make 64 (Char.chr (Char.code 'a' + i)) in
  List.iter (fun i -> Jobs.Cache.store c (string_of_int i) (payload i))
    [ 0; 1; 2; 3 ];
  let per_entry = Jobs.Cache.size_bytes c / 4 in
  Alcotest.(check bool) "entries have a size" true (per_entry > 0);
  (* age entries 0 and 1: mtime is the recency signal prune sorts by *)
  let old = Unix.gettimeofday () -. 3600.0 in
  List.iter
    (fun i -> Unix.utimes (Jobs.Cache.path c (string_of_int i)) old old)
    [ 0; 1 ];
  let removed, removed_bytes =
    Jobs.Cache.prune ~max_bytes:(2 * per_entry) c
  in
  Alcotest.(check int) "two oldest evicted" 2 removed;
  Alcotest.(check int) "their bytes accounted" (2 * per_entry) removed_bytes;
  Alcotest.(check int) "directory trimmed to budget" (2 * per_entry)
    (Jobs.Cache.size_bytes c);
  Alcotest.(check bool) "aged entries gone" true
    (Jobs.Cache.find c "0" = None && Jobs.Cache.find c "1" = None);
  Alcotest.(check bool) "recent entries kept" true
    (Jobs.Cache.find c "2" = Some (payload 2)
     && Jobs.Cache.find c "3" = Some (payload 3));
  (* already under budget: prune removes nothing *)
  Alcotest.(check (pair int int)) "under budget is a no-op" (0, 0)
    (Jobs.Cache.prune ~max_bytes:(2 * per_entry) c)

(* --- determinism ----------------------------------------------------------- *)

let test_rng_of_key () =
  let a = Util.Rng.of_key ~seed:7 "cell" in
  let b = Util.Rng.of_key ~seed:7 "cell" in
  Alcotest.(check (list int)) "same seed+key -> same stream"
    (List.init 8 (fun _ -> Util.Rng.int a 1000))
    (List.init 8 (fun _ -> Util.Rng.int b 1000));
  let c = Util.Rng.of_key ~seed:7 "other-cell" in
  let d = Util.Rng.of_key ~seed:8 "cell" in
  Alcotest.(check bool) "different key -> different stream" false
    (List.init 8 (fun _ -> Util.Rng.int c 1000)
     = List.init 8 (fun _ -> Util.Rng.int d 1000))

let test_serial_parallel_identical () =
  (* per-job randomness comes from the job key, so scheduling order cannot
     leak into results: a 4-worker run must equal the in-process run *)
  let f i =
    let rng = Util.Rng.of_key ~seed:42 (string_of_int i) in
    List.init 5 (fun _ -> Util.Rng.range rng 0 100_000)
  in
  let run jobs =
    Jobs.Pool.map
      { Jobs.Pool.default with Jobs.Pool.jobs }
      ~key:string_of_int ~f (List.init 12 Fun.id)
  in
  Alcotest.(check (list (list int))) "serial = parallel"
    (List.map get (run 1)) (List.map get (run 4))

(* --- fault tolerance ------------------------------------------------------- *)

let test_exception_isolation () =
  let f i = if i = 1 then failwith "boom" else i * 10 in
  let rs =
    Jobs.Pool.map
      { Jobs.Pool.default with Jobs.Pool.jobs = 3 }
      ~key:string_of_int ~f (List.init 5 Fun.id)
  in
  List.iteri
    (fun i (r : _ Jobs.Pool.result) ->
       match (i, r.Jobs.Pool.outcome) with
       | (1, Jobs.Pool.Failed m) ->
         Alcotest.(check bool) "exception text surfaces" true
           (String.length m > 0);
         (* a deterministic exception is never retried *)
         Alcotest.(check int) "single attempt" 1 r.Jobs.Pool.attempts
       | (1, _) -> Alcotest.fail "job 1 should have failed"
       | (_, _) -> Alcotest.(check int) "others unaffected" (i * 10) (get r))
    rs

let test_worker_death_isolation () =
  (* [Unix._exit] skips the result protocol entirely: the parent sees EOF,
     must report a structured failure, and the pool must keep going *)
  let f i = if i = 2 then Unix._exit 9 else i + 100 in
  let rs =
    Jobs.Pool.map
      { Jobs.Pool.default with Jobs.Pool.jobs = 3; retries = 0 }
      ~key:string_of_int ~f (List.init 6 Fun.id)
  in
  List.iteri
    (fun i (r : _ Jobs.Pool.result) ->
       match (i, r.Jobs.Pool.outcome) with
       | (2, Jobs.Pool.Failed m) ->
         Alcotest.(check bool) "death is reported as such" true
           (String.length m > 0)
       | (2, _) -> Alcotest.fail "job 2 should have failed"
       | (i, _) -> Alcotest.(check int) "pool survived" (i + 100) (get r))
    rs

let test_retry_after_death () =
  let dir = tmpdir () in
  let marker = Filename.concat dir "first-attempt-done" in
  (* dies on the first attempt, succeeds on the redispatch: exactly the
     flaky-worker scenario bounded retries exist for *)
  let f i =
    if i = 0 && not (Sys.file_exists marker) then begin
      let oc = open_out marker in
      close_out oc;
      Unix._exit 3
    end
    else i + 7
  in
  let rs =
    Jobs.Pool.map
      { Jobs.Pool.default with Jobs.Pool.jobs = 2; retries = 1 }
      ~key:string_of_int ~f (List.init 3 Fun.id)
  in
  let r0 = List.nth rs 0 in
  Alcotest.(check int) "retried job succeeds" 7 (get r0);
  Alcotest.(check int) "second dispatch consumed" 2 r0.Jobs.Pool.attempts

let test_timeout_kill () =
  let f i = if i = 0 then (Unix.sleepf 30.0; 0) else i in
  let t0 = Unix.gettimeofday () in
  let rs =
    Jobs.Pool.map
      { Jobs.Pool.default with
        Jobs.Pool.jobs = 2; timeout_s = Some 0.3; retries = 0 }
      ~key:string_of_int ~f (List.init 4 Fun.id)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match (List.nth rs 0).Jobs.Pool.outcome with
   | Jobs.Pool.Timed_out t ->
     Alcotest.(check bool) "ran at least the budget" true (t >= 0.29)
   | _ -> Alcotest.fail "job 0 should have timed out");
  List.iteri
    (fun i (r : _ Jobs.Pool.result) ->
       if i > 0 then Alcotest.(check int) "others completed" i (get r))
    rs;
  (* the sleeper was SIGKILLed, not waited out *)
  Alcotest.(check bool) "pool did not wait for the sleeper" true
    (elapsed < 10.0)

(* Every forked worker is gone and reaped: waitpid finds no child at all. *)
let check_no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | (pid, _) -> Alcotest.failf "a worker outlived its pool (waitpid -> %d)" pid

let test_no_worker_outlives_map () =
  (* one map with every way a worker goes away: job 0 dies on both of its
     attempts, job 1 dies once and succeeds on the retry, job 2 is
     SIGKILLed at its deadline *)
  let dir = tmpdir () in
  let marker = Filename.concat dir "first-attempt-done" in
  let f i =
    match i with
    | 0 -> Unix._exit 9
    | 1 when not (Sys.file_exists marker) ->
      close_out (open_out marker);
      Unix._exit 3
    | 2 -> Unix.sleepf 30.0; 2
    | i -> i
  in
  let rs =
    Jobs.Pool.map
      { Jobs.Pool.default with
        Jobs.Pool.jobs = 3; timeout_s = Some 0.3; retries = 1 }
      ~key:string_of_int ~f (List.init 5 Fun.id)
  in
  (match List.map (fun (r : _ Jobs.Pool.result) -> r.Jobs.Pool.outcome) rs with
   | [ Jobs.Pool.Failed _; Jobs.Pool.Done 1; Jobs.Pool.Timed_out _;
       Jobs.Pool.Done 3; Jobs.Pool.Done 4 ] -> ()
   | _ -> Alcotest.fail "expected died, retried, timed out, done, done");
  check_no_children ()

let test_unmarshallable_task () =
  (* a channel cannot be marshalled: the dispatch fails before a byte is
     written, so only that task fails, once, and no worker is killed *)
  let f (i, ch) = if ch = None then i else -1 in
  let rs =
    Jobs.Pool.map
      { Jobs.Pool.default with Jobs.Pool.jobs = 2; retries = 1 }
      ~key:(fun (i, _) -> string_of_int i)
      ~f [ (0, None); (1, Some stdin); (2, None) ]
  in
  (match List.nth rs 1 with
   | { Jobs.Pool.outcome = Jobs.Pool.Failed m; attempts; _ } ->
     Alcotest.(check bool) "reported as unmarshallable" true
       (String.starts_with ~prefix:"unmarshallable task: " m);
     Alcotest.(check int) "not retried" 1 attempts
   | _ -> Alcotest.fail "the channel task should have failed");
  Alcotest.(check (list int)) "the others complete" [ 0; 2 ]
    (List.map get [ List.nth rs 0; List.nth rs 2 ]);
  check_no_children ()

(* --- persist --------------------------------------------------------------- *)

let ticket_of (c : _ Jobs.Persist.completion) = c.Jobs.Persist.ticket
let outcome_of (c : _ Jobs.Persist.completion) = c.Jobs.Persist.outcome

(* Poll [p] until [n] completions have arrived. *)
let collect p n =
  let t_end = Unix.gettimeofday () +. 20.0 in
  let rec go acc =
    if List.length acc >= n then acc
    else if Unix.gettimeofday () > t_end then
      Alcotest.failf "persist: %d of %d results arrived" (List.length acc) n
    else go (acc @ Jobs.Persist.poll p ~timeout_s:0.5)
  in
  go []

let submit p task =
  match Jobs.Persist.try_submit p task with
  | Some ticket -> ticket
  | None -> Alcotest.fail "persist: no idle worker"

let run_one p task =
  let ticket = submit p task in
  match collect p 1 with
  | [ c ] when ticket_of c = ticket -> outcome_of c
  | _ -> Alcotest.fail "persist: expected exactly this ticket back"

let test_persist_worker_death () =
  let p =
    Jobs.Persist.create ~jobs:2 (fun i -> if i < 0 then Unix._exit 9 else 2 * i)
  in
  (match run_one p (-1) with
   | Jobs.Persist.Failed m ->
     Alcotest.(check bool) "reported as a death" true
       (String.starts_with ~prefix:"worker died" m)
   | _ -> Alcotest.fail "the dying job should have failed");
  Alcotest.(check int) "the dead worker is replaced" (Jobs.Persist.size p)
    (Jobs.Persist.idle p);
  (match run_one p 4 with
   | Jobs.Persist.Done 8 -> ()
   | _ -> Alcotest.fail "the next task should succeed");
  Jobs.Persist.shutdown p;
  check_no_children ()

let test_persist_timeout () =
  let p =
    Jobs.Persist.create ~timeout_s:0.2 ~jobs:1
      (fun i -> if i = 0 then (Unix.sleepf 30.0; 0) else i)
  in
  let ticket = submit p 0 in
  Unix.sleepf 0.3;
  (match Jobs.Persist.expire p ~now:(Unix.gettimeofday ()) with
   | [ c ] when ticket_of c = ticket ->
     (match outcome_of c with
      | Jobs.Persist.Timed_out s ->
        Alcotest.(check bool) "ran at least the budget" true (s >= 0.2)
      | _ -> Alcotest.fail "expected Timed_out")
   | _ -> Alcotest.fail "expire should return the sleeper's ticket alone");
  Alcotest.(check int) "the killed worker is replaced" 1 (Jobs.Persist.idle p);
  (match run_one p 5 with
   | Jobs.Persist.Done 5 -> ()
   | _ -> Alcotest.fail "the replacement should serve the next task");
  Jobs.Persist.shutdown p;
  check_no_children ()

let test_persist_tickets () =
  let p = Jobs.Persist.create ~jobs:3 (fun i -> i + 1) in
  let t1 = submit p 10 in
  let t2 = submit p 20 in
  let t3 = submit p 30 in
  Alcotest.(check bool) "every worker busy" true
    (Jobs.Persist.try_submit p 40 = None);
  let cs = collect p 3 in
  Alcotest.(check (list int)) "each ticket resolves once" [ t1; t2; t3 ]
    (List.sort compare (List.map ticket_of cs));
  let t4 = submit p 40 in
  Alcotest.(check bool) "tickets increase" true (t1 < t2 && t2 < t3 && t3 < t4);
  ignore (collect p 1);
  Jobs.Persist.shutdown p;
  check_no_children ()

let test_persist_shutdown () =
  let p =
    Jobs.Persist.create ~jobs:3
      (fun i -> if i = 0 then (Unix.sleepf 30.0; 0) else i)
  in
  ignore (submit p 0);
  Jobs.Persist.shutdown p;
  check_no_children ()

let test_persist_unmarshallable () =
  (* the same worker serves before and after the refused task *)
  let p = Jobs.Persist.create ~jobs:2 (fun (_, _) -> Unix.getpid ()) in
  let pid =
    match run_one p (0, None) with
    | Jobs.Persist.Done pid -> pid
    | _ -> Alcotest.fail "the first task should succeed"
  in
  (match Jobs.Persist.try_submit p (1, Some stdin) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "try_submit should raise Invalid_argument");
  Alcotest.(check int) "no worker busy" (Jobs.Persist.size p)
    (Jobs.Persist.idle p);
  (match run_one p (2, None) with
   | Jobs.Persist.Done pid' -> Alcotest.(check int) "worker kept" pid pid'
   | _ -> Alcotest.fail "the next task should succeed");
  Jobs.Persist.shutdown p;
  check_no_children ()

(* --- cache + pool + manifest ----------------------------------------------- *)

let test_cache_skips_recompute () =
  let dir = tmpdir () in
  let m = Jobs.Manifest.create () in
  let f i = i * i in
  let run () =
    (* a fresh Cache.t per invocation models a fresh process over the same
       cache directory *)
    Jobs.Pool.map ~label:"squares"
      { Jobs.Pool.default with
        Jobs.Pool.jobs = 2;
        cache = Some (Jobs.Cache.create ~salt:"v" ~dir ());
        manifest = Some m }
      ~key:string_of_int ~f (List.init 8 Fun.id)
  in
  let first = run () in
  List.iter
    (fun (r : _ Jobs.Pool.result) ->
       Alcotest.(check bool) "first run computes" false r.Jobs.Pool.cached)
    first;
  let second = run () in
  List.iteri
    (fun i (r : _ Jobs.Pool.result) ->
       Alcotest.(check bool) "second run is served from cache" true
         r.Jobs.Pool.cached;
       Alcotest.(check int) "cached value is the computed one" (i * i) (get r))
    second;
  (* the manifest records both runs, with the hit counts an operator would
     check to confirm the matrix was not recomputed *)
  (match m.Jobs.Manifest.runs with
   | [ r1; r2 ] ->
     Alcotest.(check int) "no hits on first run" 0 r1.Jobs.Manifest.r_cache_hits;
     Alcotest.(check int) "all hits on second run" 8 r2.Jobs.Manifest.r_cache_hits;
     Alcotest.(check int) "ok counts cover the matrix" 8 r2.Jobs.Manifest.r_ok
   | rs -> Alcotest.failf "expected 2 manifest runs, got %d" (List.length rs));
  let path = Filename.concat dir "manifest.json" in
  Jobs.Manifest.write m path;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let module J = Obs.Json in
  match J.parse s with
  | Error e -> Alcotest.fail ("manifest JSON: " ^ e)
  | Ok root ->
    (match Option.bind (J.member "runs" root) J.as_list with
     | Some [ j1; j2 ] ->
       Alcotest.(check bool) "manifest JSON names the run" true
         (J.path [ "label" ] j1 = Some (J.Str "squares")
          && J.path [ "label" ] j2 = Some (J.Str "squares"));
       Alcotest.(check bool) "manifest JSON reports cache hits" true
         (J.path [ "cache_hits" ] j1 = Some (J.Num 0.0)
          && J.path [ "cache_hits" ] j2 = Some (J.Num 8.0))
     | _ -> Alcotest.fail "manifest JSON: expected 2 runs")

let () =
  Alcotest.run "jobs"
    [ ("cache",
       [ Alcotest.test_case "key stability" `Quick test_cache_key_stability;
         Alcotest.test_case "roundtrip + second run" `Quick
           test_cache_roundtrip;
         Alcotest.test_case "corrupt entry recovery" `Quick
           test_cache_corrupt_recovery;
         Alcotest.test_case "prune LRU by mtime" `Quick
           test_cache_prune_lru ]);
      ("determinism",
       [ Alcotest.test_case "rng of_key" `Quick test_rng_of_key;
         Alcotest.test_case "serial = parallel" `Quick
           test_serial_parallel_identical ]);
      ("fault-tolerance",
       [ Alcotest.test_case "exception isolation" `Quick
           test_exception_isolation;
         Alcotest.test_case "worker death isolation" `Quick
           test_worker_death_isolation;
         Alcotest.test_case "retry after death" `Quick test_retry_after_death;
         Alcotest.test_case "timeout SIGKILL" `Quick test_timeout_kill;
         Alcotest.test_case "no worker outlives map" `Quick
           test_no_worker_outlives_map;
         Alcotest.test_case "unmarshallable task" `Quick
           test_unmarshallable_task ]);
      ("persist",
       [ Alcotest.test_case "worker death" `Quick test_persist_worker_death;
         Alcotest.test_case "timeout" `Quick test_persist_timeout;
         Alcotest.test_case "tickets increase" `Quick test_persist_tickets;
         Alcotest.test_case "shutdown reaps" `Quick test_persist_shutdown;
         Alcotest.test_case "unmarshallable task" `Quick
           test_persist_unmarshallable ]);
      ("cache+pool",
       [ Alcotest.test_case "cache skips recompute" `Quick
           test_cache_skips_recompute ]) ]

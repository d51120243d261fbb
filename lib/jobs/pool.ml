(* Batch policy over forked workers.

   [map opts ~key ~f tasks] evaluates [f] over [tasks] on [opts.jobs]
   [Persist] workers and returns the outcomes in input order.  [Persist]
   owns the processes and the pipe protocol (fork, marshalled task and
   report, SIGKILL past a deadline, reaping); this module owns what a
   batch adds on top:

   - retries: a job whose worker died outright (segfault, OOM kill,
     [Unix._exit] deep in a consumer) is re-dispatched up to
     [opts.retries] times; a clean exception is deterministic and is
     never retried, and a timed-out job is not retried either;
   - determinism: jobs are dispatched in input order to whichever worker is
     idle, but results are keyed by input position, so the returned list —
     and anything printed from it — is byte-identical to a serial run.
     Per-job randomness should come from [Util.Rng.of_key] on the job key,
     which is schedule-independent by construction;
   - the result cache, the run manifest and the live progress line.

   Serial mode ([opts.jobs <= 1]) runs [f] in-process: exceptions are still
   isolated per job, but timeouts are not enforced (there is no worker to
   kill) and a crash of [f] is a crash of the caller.  Both modes share the
   result cache and manifest bookkeeping, so a serial and a parallel run of
   the same matrix are interchangeable.

   SIGINT: during [map], a handler records the signal; the pool files a
   partial run record in the manifest (marked interrupted), SIGKILLs and
   reaps every worker (no orphans), restores the previous handler, and
   raises [Interrupted] for the CLI to turn into a nonzero exit. *)

exception Interrupted

type 'r outcome = 'r Persist.outcome =
  | Done of 'r
  | Failed of string       (* worker exception or worker death *)
  | Timed_out of float     (* seconds the job ran before SIGKILL *)

type 'r result = {
  outcome : 'r outcome;
  time_s : float;          (* worker-side wall time; parent-side on a
                              worker death or timeout *)
  utime_s : float;         (* user CPU spent in [f] (Unix.times delta) *)
  stime_s : float;         (* system CPU spent in [f] *)
  attempts : int;          (* dispatches consumed; 0 for a cache hit *)
  cached : bool;
}

type opts = {
  jobs : int;              (* worker processes; <= 1 runs in-process *)
  timeout_s : float option;(* per-job wall budget (forked mode only) *)
  retries : int;           (* extra dispatches after a worker *death*;
                              a clean exception is deterministic and is
                              never retried *)
  cache : Cache.t option;
  manifest : Manifest.t option;
  progress : bool;         (* live progress line on stderr *)
}

let default =
  { jobs = 1; timeout_s = None; retries = 1; cache = None; manifest = None;
    progress = false }

let interrupted = ref false

let with_signals k =
  interrupted := false;
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> interrupted := true))
  in
  let old_pipe =
    (* a worker dying mid-dispatch must surface as EPIPE, not kill us *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
        Sys.set_signal Sys.sigint old_int;
        match old_pipe with
        | Some b -> Sys.set_signal Sys.sigpipe b
        | None -> ())
    k

type counters = {
  mutable ok : int;
  mutable failed : int;
  mutable timed_out : int;
  mutable cache_hits : int;
  mutable busy_s : float;
  mutable cpu_s : float;       (* user+system CPU across resolved jobs *)
}

let map ?(label = "jobs") (o : opts) ~(key : 'a -> string) ~(f : 'a -> 'b)
    (tasks : 'a list) : 'b result list =
  let tasks = Array.of_list tasks in
  let keys = Array.map key tasks in
  let n = Array.length tasks in
  let results : 'b result option array = Array.make n None in
  let t_start = Unix.gettimeofday () in
  let c = { ok = 0; failed = 0; timed_out = 0; cache_hits = 0; busy_s = 0.0;
            cpu_s = 0.0 } in
  let max_workers = ref 1 in
  let last_line = ref 0.0 in
  let progress ?(force = false) () =
    if o.progress && n > 0 then begin
      let now = Unix.gettimeofday () in
      if force || now -. !last_line >= 0.1 then begin
        last_line := now;
        Printf.eprintf
          "\r[%s] %d/%d  ok %d  failed %d  timeout %d  cached %d  %.1fs%!"
          label
          (c.ok + c.failed + c.timed_out)
          n c.ok c.failed c.timed_out c.cache_hits (now -. t_start)
      end
    end
  in
  let resolve i (r : 'b result) =
    results.(i) <- Some r;
    (match r.outcome with
     | Done _ -> c.ok <- c.ok + 1
     | Failed _ -> c.failed <- c.failed + 1
     | Timed_out _ -> c.timed_out <- c.timed_out + 1);
    if r.cached then c.cache_hits <- c.cache_hits + 1;
    c.cpu_s <- c.cpu_s +. r.utime_s +. r.stime_s;
    progress ()
  in
  let finalize ~interrupted:intr =
    progress ~force:true ();
    if o.progress && n > 0 then prerr_newline ();
    if Obs.Metrics.enabled () then begin
      let cnt = Obs.Metrics.count in
      cnt "jobs.cells" n;
      cnt "jobs.ok" c.ok;
      cnt "jobs.failed" c.failed;
      cnt "jobs.timed_out" c.timed_out;
      cnt "jobs.cache_hits" c.cache_hits;
      cnt "jobs.cache_misses" (n - c.cache_hits)
    end;
    match o.manifest with
    | None -> ()
    | Some m ->
      let wall = Unix.gettimeofday () -. t_start in
      let entries =
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i r ->
                   Option.map
                     (fun (r : 'b result) ->
                        { Manifest.e_key = keys.(i);
                          e_status =
                            (match r.outcome with
                             | Done _ -> "ok"
                             | Failed _ -> "failed"
                             | Timed_out _ -> "timed-out");
                          e_time_s = r.time_s;
                          e_utime_s = r.utime_s;
                          e_stime_s = r.stime_s;
                          e_attempts = r.attempts;
                          e_cached = r.cached })
                     r)
                results))
      in
      Manifest.add m
        { Manifest.r_label = label;
          r_jobs = o.jobs;
          r_total = n;
          r_ok = c.ok;
          r_failed = c.failed;
          r_timed_out = c.timed_out;
          r_cache_hits = c.cache_hits;
          r_cache_misses = n - c.cache_hits;
          r_wall_s = wall;
          r_cpu_s = c.cpu_s;
          r_utilization =
            (if wall <= 0.0 then 0.0
             else c.busy_s /. (wall *. float_of_int (max 1 !max_workers)));
          r_interrupted = intr;
          r_entries = entries }
  in
  let interrupted_exit () =
    finalize ~interrupted:true;
    raise Interrupted
  in
  (* resolve cache hits up front; only misses are ever dispatched *)
  let pending = Queue.create () in
  Array.iteri
    (fun i _ ->
       match o.cache with
       | Some cache ->
         (match Cache.find cache keys.(i) with
          | Some v ->
            resolve i
              { outcome = Done v; time_s = 0.0; utime_s = 0.0; stime_s = 0.0;
                attempts = 0; cached = true }
          | None -> Queue.add (i, 1) pending)
       | None -> Queue.add (i, 1) pending)
    tasks;
  let complete i outcome (k : Persist.clock) attempts =
    (match (outcome, o.cache) with
     | (Done v, Some cache) -> Cache.store cache keys.(i) v
     | _ -> ());
    resolve i
      { outcome; time_s = k.Persist.wall_s; utime_s = k.Persist.utime_s;
        stime_s = k.Persist.stime_s; attempts; cached = false }
  in

  let run_serial () =
    while not (Queue.is_empty pending) do
      if !interrupted then interrupted_exit ();
      let (i, attempt) = Queue.pop pending in
      let (r, k) = Persist.timed f tasks.(i) in
      c.busy_s <- c.busy_s +. k.Persist.wall_s;
      complete i
        (match r with Ok v -> Done v | Error m -> Failed m)
        k attempt
    done;
    if !interrupted then interrupted_exit ()
  in

  let run_parallel () =
    let p = Persist.create ?timeout_s:o.timeout_s ~jobs:!max_workers f in
    (* ticket -> job index, attempt, dispatch time *)
    let inflight = Hashtbl.create 16 in
    let rec dispatch () =
      if not (Queue.is_empty pending) then begin
        let (i, attempt) = Queue.peek pending in
        match Persist.try_submit p tasks.(i) with
        | None -> ()
        | Some ticket ->
          ignore (Queue.pop pending);
          Hashtbl.replace inflight ticket (i, attempt, Unix.gettimeofday ());
          dispatch ()
        | exception Invalid_argument m ->
          ignore (Queue.pop pending);
          complete i (Failed ("unmarshallable task: " ^ m))
            (Persist.parent_clock 0.0) attempt;
          dispatch ()
      end
    in
    let handle (cp : _ Persist.completion) =
      let (i, attempt, started) = Hashtbl.find inflight cp.Persist.ticket in
      Hashtbl.remove inflight cp.Persist.ticket;
      c.busy_s <- c.busy_s +. (Unix.gettimeofday () -. started);
      (* only a death is retried: a clean exception is deterministic *)
      if cp.Persist.died && attempt <= o.retries then
        Queue.add (i, attempt + 1) pending
      else complete i cp.Persist.outcome cp.Persist.clock attempt
    in
    Fun.protect
      ~finally:(fun () -> Persist.shutdown p)
      (fun () ->
         while c.ok + c.failed + c.timed_out < n do
           if !interrupted then interrupted_exit ();
           dispatch ();
           (* the tick bounds how long a SIGINT waits to be noticed *)
           List.iter handle (Persist.poll p ~timeout_s:0.5);
           progress ()
         done)
  in

  with_signals (fun () ->
      if not (Queue.is_empty pending) then
        if o.jobs <= 1 then run_serial ()
        else begin
          max_workers := min o.jobs (Queue.length pending);
          run_parallel ()
        end
      else if !interrupted then interrupted_exit ());
  finalize ~interrupted:false;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> { outcome = Failed "job never resolved"; time_s = 0.0;
                     utime_s = 0.0; stime_s = 0.0;
                     attempts = 0; cached = false })
       results)

(* Run [k] with a fresh manifest accumulator and write it to [path] (when
   given) on normal completion *and* on pool interruption, so a Ctrl-C still
   leaves a partial run manifest behind.  Returns the process exit code;
   interruption maps to 130 (128 + SIGINT). *)
let with_manifest path k =
  let m = Manifest.create () in
  let write () =
    match path with Some p -> Manifest.write m p | None -> ()
  in
  match k m with
  | code -> write (); code
  | exception Interrupted ->
    write ();
    Printf.eprintf "interrupted: workers killed and reaped%s\n%!"
      (match path with
       | Some p -> Printf.sprintf "; partial manifest in %s" p
       | None -> "");
    130

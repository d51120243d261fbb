(* Forked worker processes behind marshalled pipes: the one module that
   forks, dispatches to, reads from, times out and reaps workers.

   Each worker is a [Unix.fork] of the parent: it inherits [f] (and
   everything [f] closes over) through the fork, so only task and result
   *values* ever cross a pipe, each as one marshalled message.  The parent
   side is shaped for an external event loop (watching sockets as well as
   workers) that feeds tasks in as they arrive and collects results as they
   finish:

     let p = Persist.create ~jobs:4 f in
     ... select ( your fds @ Persist.fds p ) ...
     match Persist.try_submit p task with
     | Some ticket -> ...                  (* dispatched to an idle worker *)
     | None -> ...                         (* all workers busy: queue or shed *)
     List.iter handle (Persist.handle_ready p fd);   (* fd came up readable *)
     List.iter handle (Persist.expire p ~now);       (* enforce timeouts *)

   [Pool.map] drives the same calls from its own loop through [poll].

   Workers are forked once at [create] and live for the pool's lifetime, so
   per-worker warm state (lazily built caches inside [f]'s closure) persists
   across jobs — the property the obfuscation server leans on for warm
   rewriter contexts.  A worker that dies is reaped, its job surfaces as a
   [Failed] completion marked [died], and a replacement is forked so
   capacity never decays.  A worker past its deadline is SIGKILLed and
   replaced, its job surfacing as [Timed_out].

   Callers must ignore SIGPIPE: a worker dying between jobs then surfaces
   as a write error on dispatch rather than killing the parent. *)

type 'r outcome =
  | Done of 'r
  | Failed of string       (* worker exception or worker death *)
  | Timed_out of float     (* seconds the job ran before SIGKILL *)

(* Wall and CPU clocks across one run of [f].  CPU time comes from
   [Unix.times] deltas: wall time alone cannot distinguish a recompute from
   a job that sat in a page-cache stall. *)
type clock = { wall_s : float; utime_s : float; stime_s : float }

(* Run [f x] under the clocks, turning an exception into its text. *)
let timed f x =
  let t0 = Unix.gettimeofday () in
  let tm0 = Unix.times () in
  let r =
    match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let tm1 = Unix.times () in
  ( r,
    { wall_s = Unix.gettimeofday () -. t0;
      utime_s = tm1.Unix.tms_utime -. tm0.Unix.tms_utime;
      stime_s = tm1.Unix.tms_stime -. tm0.Unix.tms_stime } )

(* --- worker side ----------------------------------------------------------- *)

(* The worker marshals its result to a string itself, so an unmarshallable
   result (a closure smuggled into a result type) degrades to a [Failed]
   instead of desynchronizing the pipe protocol. *)
type reply = R_ok of string | R_exn of string

(* Everything the worker reports per job: the reply, its own clocks, and
   the delta of the metrics registry across [f], so the parent can
   [Obs.Metrics.absorb] per-worker instrumentation into its own registry.
   The snapshot is plain data and the diff of two identical snapshots is
   [], so with metrics disabled the extra pipe traffic is an empty list. *)
type job_report = {
  jr_ticket : int;
  jr_reply : reply;
  jr_clock : clock;
  jr_metrics : Obs.Metrics.snapshot;
}

let encode r =
  try R_ok (Marshal.to_string r [])
  with Invalid_argument m -> R_exn ("unmarshallable result: " ^ m)

let worker_loop (f : 'a -> 'b) ic oc =
  let rec loop () =
    let (ticket, task) = (Marshal.from_channel ic : int * 'a) in
    let m0 = Obs.Metrics.snapshot () in
    let (r, clock) = timed (fun task -> encode (f task)) task in
    Marshal.to_channel oc
      { jr_ticket = ticket;
        jr_reply = (match r with Ok reply -> reply | Error m -> R_exn m);
        jr_clock = clock;
        jr_metrics = Obs.Metrics.diff m0 (Obs.Metrics.snapshot ()) }
      [];
    flush oc;
    loop ()
  in
  (try loop () with End_of_file | Sys_error _ -> ());
  Unix._exit 0

(* --- parent side ----------------------------------------------------------- *)

type worker = {
  w_pid : int;
  w_oc : out_channel;      (* parent -> worker: (ticket, task) *)
  w_ic : in_channel;       (* worker -> parent: job_report *)
  w_recv : Unix.file_descr;
  (* ticket, dispatch time, deadline (infinity if no timeout) *)
  mutable w_job : (int * float * float) option;
}

type ('a, 'b) t = {
  p_f : 'a -> 'b;                      (* kept for respawns *)
  p_jobs : int;
  p_timeout_s : float option;
  mutable p_workers : worker list;
  mutable p_next : int;                (* next ticket *)
  mutable p_stopped : bool;
}

(* One resolved job.  [died] marks a worker that exited mid-job (EOF on its
   result pipe): that [Failed] is a crash, not an exception [f] raised, and
   a batch may retry it.  [clock] is the worker's own; for a death or a
   timeout it is the parent-side elapsed time with no CPU. *)
type 'r completion = {
  ticket : int;
  outcome : 'r outcome;
  died : bool;
  clock : clock;
}

let spawn t =
  (* anything buffered now would be flushed a second time by the child's
     stdio if it ever wrote; keep the child's buffers empty *)
  flush stdout;
  flush stderr;
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Drop every parent-side descriptor, including the pipes of sibling
       workers forked earlier: a sibling can only see the parent's EOF if
       no other process still holds the write end. *)
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (List.concat_map
         (fun w -> [ Unix.descr_of_out_channel w.w_oc; w.w_recv ])
         t.p_workers);
    Unix.close task_w;
    Unix.close res_r;
    (* the parent owns shutdown: it SIGKILLs workers deterministically *)
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    worker_loop t.p_f
      (Unix.in_channel_of_descr task_r)
      (Unix.out_channel_of_descr res_w)
  | pid ->
    Unix.close task_r;
    Unix.close res_w;
    t.p_workers <-
      t.p_workers
      @ [ { w_pid = pid;
            w_oc = Unix.out_channel_of_descr task_w;
            w_ic = Unix.in_channel_of_descr res_r;
            w_recv = res_r;
            w_job = None } ]

let create ?timeout_s ~jobs (f : 'a -> 'b) : ('a, 'b) t =
  if jobs < 1 then invalid_arg "Jobs.Persist.create: jobs must be >= 1";
  let t =
    { p_f = f; p_jobs = jobs; p_timeout_s = timeout_s; p_workers = [];
      p_next = 0; p_stopped = false }
  in
  for _ = 1 to jobs do spawn t done;
  t

let size t = t.p_jobs

let busy t = List.length (List.filter (fun w -> w.w_job <> None) t.p_workers)

let idle t = List.length t.p_workers - busy t

(* Result-pipe descriptors of busy workers: what an external event loop
   should select on alongside its own fds. *)
let fds t =
  List.filter_map
    (fun w -> if w.w_job = None then None else Some w.w_recv)
    t.p_workers

let next_deadline t =
  List.fold_left
    (fun acc w ->
       match w.w_job with
       | Some (_, _, dl) -> Float.min acc dl
       | None -> acc)
    infinity t.p_workers

let reap w =
  match Unix.waitpid [] w.w_pid with
  | (_, Unix.WEXITED c) -> Printf.sprintf "exit %d" c
  | (_, Unix.WSIGNALED s) -> Printf.sprintf "signal %d" s
  | (_, Unix.WSTOPPED s) -> Printf.sprintf "stopped %d" s
  | exception Unix.Unix_error _ -> "unknown"

let kill w = try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Retire a dead or killed worker and fork a replacement, so the pool
   stays at [p_jobs] capacity. *)
let replace t w =
  close_out_noerr w.w_oc;
  close_in_noerr w.w_ic;
  t.p_workers <- List.filter (fun x -> x != w) t.p_workers;
  if not t.p_stopped then spawn t

(* Dispatch to an idle worker.  [None] means every worker is busy — the
   caller queues or sheds; that admission policy deliberately lives outside
   this module.  A task that cannot be marshalled raises [Invalid_argument]
   before a byte is written, and the worker is left alone.  A write that
   fails means the worker died: it is replaced and the dispatch retried on
   another idle worker (a ticket is consumed only on success). *)
let rec try_submit (t : ('a, 'b) t) (task : 'a) : int option =
  if t.p_stopped then None
  else
    match List.find_opt (fun w -> w.w_job = None) t.p_workers with
    | None -> None
    | Some w ->
      let ticket = t.p_next in
      let msg = Marshal.to_string (ticket, task) [ Marshal.Closures ] in
      (match output_string w.w_oc msg; flush w.w_oc with
       | () ->
         t.p_next <- ticket + 1;
         let now = Unix.gettimeofday () in
         let deadline =
           match t.p_timeout_s with Some s -> now +. s | None -> infinity
         in
         w.w_job <- Some (ticket, now, deadline);
         Some ticket
       | exception Sys_error _ ->
         kill w;
         ignore (reap w);
         replace t w;
         try_submit t task)

let parent_clock dt = { wall_s = dt; utime_s = 0.0; stime_s = 0.0 }

(* A result-pipe descriptor came up readable: collect the finished job.
   Also the place worker *death* is detected (EOF instead of a report). *)
let handle_ready (t : ('a, 'b) t) (fd : Unix.file_descr)
  : 'b completion option =
  match
    List.find_opt (fun w -> w.w_recv = fd && w.w_job <> None) t.p_workers
  with
  | None -> None
  | Some w ->
    let (ticket, started, _) = Option.get w.w_job in
    (match (Marshal.from_channel w.w_ic : job_report) with
     | jr ->
       w.w_job <- None;
       (* fold the worker's per-job metric delta into our registry so
          parallel totals match a serial run's *)
       Obs.Metrics.absorb jr.jr_metrics;
       let outcome =
         match jr.jr_reply with
         | R_ok s -> Done (Marshal.from_string s 0 : 'b)
         | R_exn m -> Failed m
       in
       Some { ticket; outcome; died = false; clock = jr.jr_clock }
     | exception (End_of_file | Sys_error _ | Failure _) ->
       let dt = Unix.gettimeofday () -. started in
       let st = reap w in
       replace t w;
       Some
         { ticket; outcome = Failed (Printf.sprintf "worker died (%s)" st);
           died = true; clock = parent_clock dt })

(* Kill workers past their deadline; their jobs surface as [Timed_out]. *)
let expire (t : ('a, 'b) t) ~now : 'b completion list =
  List.filter_map
    (fun w ->
       match w.w_job with
       | Some (ticket, started, dl) when now >= dl ->
         kill w;
         ignore (reap w);
         replace t w;
         let dt = now -. started in
         Some
           { ticket; outcome = Timed_out dt; died = false;
             clock = parent_clock dt }
       | _ -> None)
    t.p_workers

(* Block until one in-flight result is ready (or [timeout_s] passes) and
   collect everything readable.  For callers without their own select loop
   ([Pool.map], drain paths, tests). *)
let poll (t : ('a, 'b) t) ~timeout_s : 'b completion list =
  let now = Unix.gettimeofday () in
  let expired = expire t ~now in
  if expired <> [] then expired
  else
    match fds t with
    | [] -> []
    | watch ->
      let wait =
        let dl = next_deadline t in
        if dl = infinity then timeout_s
        else Float.max 0.0 (Float.min timeout_s (dl -. now))
      in
      let ready, _, _ =
        try Unix.select watch [] [] wait
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.filter_map (handle_ready t) ready

(* Tear the pool down.  Workers are SIGKILLed rather than asked: a graceful
   close could block forever behind a worker mid-way through writing a large
   reply nobody will read.  Callers wanting in-flight work finished drain
   via [poll] first (the server's signal path does). *)
let shutdown t =
  t.p_stopped <- true;
  List.iter kill t.p_workers;
  List.iter
    (fun w ->
       ignore (reap w);
       close_out_noerr w.w_oc;
       close_in_noerr w.w_ic)
    t.p_workers;
  t.p_workers <- []

(* The obfuscation daemon: a single-threaded event loop multiplexing client
   connections, a resident worker pool, and a sharded rewrite cache.

   Control flow per request:

     admit ──► cache hit? ──────────────────────────────► reply (Hit)
         └──► same key in flight? ──► attach waiter ────► reply (Coalesced)
         └──► queue full? ──────────────────────────────► reply (429)
         └──► enqueue ──► dispatch to idle worker ──────► reply (Miss)
                     └──► deadline passes first ────────► reply (504)

   Admission control is deliberate back-pressure: the queue is bounded
   ([max_queue]) and every queued request carries a deadline
   ([deadline_ms]), so under overload the server sheds with an immediate
   429-style response instead of building an unbounded latency backlog —
   the client retries or routes elsewhere, and the p99 of accepted work
   stays bounded.  Duplicate in-flight keys coalesce onto one rewrite:
   common when a build farm rebuilds one artifact from many nodes at once.

   Workers are [Jobs.Persist] residents (fork once, serve many), each
   holding its own warm [Oneshot] table, so after the first request for a
   program the compile + found-gadget scan are never repaid.  [jobs = 0]
   computes inline on the event loop — slower, but fully deterministic,
   which the protocol-semantics tests exploit.

   Drain: SIGTERM/SIGINT (or the [shutdown] verb) stop accepting and stop
   reading; queued and in-flight work completes, replies flush, then the
   loop exits 0.  Nothing accepted is dropped. *)

type opts = {
  jobs : int;                   (* resident workers; 0 = inline compute *)
  shards : int;
  cache_dir : string;
  cache_max_bytes : int option; (* prune threshold; None = unbounded *)
  max_queue : int;
  deadline_ms : float option;   (* max queue wait before a 504 *)
  timeout_s : float option;     (* max rewrite wall time in a worker *)
  verbose : bool;
}

let default_opts = {
  jobs = 0;
  shards = 4;
  cache_dir = "_serve_cache";
  cache_max_bytes = None;
  max_queue = 64;
  deadline_ms = None;
  timeout_s = Some 300.0;
  verbose = false;
}

type listen =
  | L_socket of string                           (* Unix-domain socket path *)
  | L_pair of Unix.file_descr * Unix.file_descr  (* read fd, write fd *)

(* --- connections ------------------------------------------------------------ *)

type conn = {
  c_rfd : Unix.file_descr;
  c_wfd : Unix.file_descr;
  c_defr : Protocol.deframer;
  c_out : Protocol.outbox;      (* replies awaiting a writable fd *)
  mutable c_eof : bool;         (* peer closed / protocol violation *)
  mutable c_dead : bool;        (* fds closed, drop from the list *)
}

let mk_conn rfd wfd =
  Unix.set_nonblock rfd;
  if wfd <> rfd then Unix.set_nonblock wfd;
  { c_rfd = rfd; c_wfd = wfd; c_defr = Protocol.deframer ();
    c_out = Protocol.outbox (); c_eof = false; c_dead = false }

(* --- pending work ----------------------------------------------------------- *)

type waiter = {
  wt_conn : conn;
  wt_id : int;
  wt_want : bool;
  wt_enq : float;
}

type pending = {
  pd_key : string;
  pd_spec : Oneshot.spec;
  pd_enq : float;
  pd_deadline : float;           (* queue-wait budget; infinity if none *)
  mutable pd_queue_ms : float;   (* set at dispatch *)
  mutable pd_waiters : waiter list;  (* newest first; head of rev = first *)
}

(* --- latency ring ----------------------------------------------------------- *)

let ring_cap = 4096

type ring = { r_buf : float array; mutable r_n : int }

let ring () = { r_buf = Array.make ring_cap 0.0; r_n = 0 }

let ring_add r v =
  r.r_buf.(r.r_n mod ring_cap) <- v;
  r.r_n <- r.r_n + 1

(* The retained window (last [ring_cap] samples), ascending. *)
let ring_sorted r =
  let a = Array.sub r.r_buf 0 (min r.r_n ring_cap) in
  Array.sort compare a;
  a

(* --- server state ----------------------------------------------------------- *)

type state = {
  st_opts : opts;
  st_cache : Shardcache.t;
  st_warm : Oneshot.warm;        (* parent-side: digests for admission;
                                    also the compute path when jobs = 0 *)
  st_pool : (Oneshot.spec, (Oneshot.artifact, string) result) Jobs.Persist.t option;
  st_t0 : float;
  mutable st_conns : conn list;
  mutable st_queue : pending list;               (* FIFO, append at tail *)
  st_bykey : (string, pending) Hashtbl.t;        (* queued or in flight *)
  st_inflight : (int, pending) Hashtbl.t;        (* ticket -> pending *)
  st_lat : ring;
  mutable st_requests : int;
  mutable st_completed : int;
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_coalesced : int;
  mutable st_shed : int;
  mutable st_expired : int;
  mutable st_errors : int;
  mutable st_stores : int;       (* stores since last prune check *)
  mutable st_draining : bool;
}

let m_requests = Obs.Metrics.counter "serve.requests"
let m_hits = Obs.Metrics.counter "serve.cache_hits"
let m_misses = Obs.Metrics.counter "serve.cache_misses"
let m_coalesced = Obs.Metrics.counter "serve.coalesced"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_expired = Obs.Metrics.counter "serve.expired"
let m_errors = Obs.Metrics.counter "serve.errors"
let m_queue_depth = Obs.Metrics.gauge "serve.queue_depth_max"
let m_lat = Obs.Metrics.histogram "serve.latency_us"

let logf st fmt =
  if st.st_opts.verbose then Printf.eprintf fmt
  else Printf.ifprintf stderr fmt

(* --- replies ---------------------------------------------------------------- *)

let reply_of (a : Oneshot.artifact) ~cache ~want ~queue_ms ~rewrite_ms :
  Protocol.rewrite_reply =
  { Protocol.rr_prog = a.Oneshot.a_prog;
    rr_digest = a.Oneshot.a_digest;
    rr_key = a.Oneshot.a_key;
    rr_cache = cache;
    rr_image = (if want then Some a.Oneshot.a_image else None);
    rr_image_digest = a.Oneshot.a_image_digest;
    rr_funcs = a.Oneshot.a_funcs;
    rr_gadget_uses = a.Oneshot.a_uses;
    rr_unique_gadgets = a.Oneshot.a_uniq;
    rr_queue_ms = queue_ms;
    rr_rewrite_ms = rewrite_ms }

let observe_latency st enq now =
  let ms = (now -. enq) *. 1000.0 in
  ring_add st.st_lat ms;
  Obs.Metrics.observe m_lat (int_of_float (ms *. 1000.0))

(* Replies to a connection whose peer already vanished are dropped; the
   rewrite still happened and was cached, which is what matters.  A reply
   too long for one frame (an image past [Protocol.max_frame]) becomes a
   500 to that waiter; the daemon keeps serving. *)
let rec respond st (c : conn) (rs : Protocol.response) =
  if not c.c_dead then begin
    match Protocol.frame_response rs with
    | Ok fr -> Protocol.enqueue c.c_out fr
    | Error _ ->
      reply_error st c rs.Protocol.rs_id 500
        "image too large for one frame; request without image"
  end

and reply_error st c id code msg =
  (match code with
   | 429 -> st.st_shed <- st.st_shed + 1; Obs.Metrics.incr m_shed
   | 504 -> st.st_expired <- st.st_expired + 1; Obs.Metrics.incr m_expired
   | _ -> st.st_errors <- st.st_errors + 1; Obs.Metrics.incr m_errors);
  respond st c { Protocol.rs_id = id; rs_body = Protocol.R_error { code; msg } }

let maybe_prune st =
  match st.st_opts.cache_max_bytes with
  | None -> ()
  | Some mb ->
    st.st_stores <- st.st_stores + 1;
    if st.st_stores >= 32 then begin
      st.st_stores <- 0;
      let n, b = Shardcache.prune st.st_cache ~max_bytes:mb in
      if n > 0 then logf st "[serve] pruned %d entries (%d bytes)\n%!" n b
    end

(* Completion of one pending rewrite: store, then answer every waiter.  The
   earliest-registered waiter is the one whose request caused the compute
   (Miss); the rest piggybacked (Coalesced). *)
let finish st (pd : pending)
    (outcome : [ `Res of (Oneshot.artifact, string) result
               | `Fail of string
               | `Timeout of float ])
    ~rewrite_ms =
  Hashtbl.remove st.st_bykey pd.pd_key;
  let now = Unix.gettimeofday () in
  let waiters = List.rev pd.pd_waiters in
  (match outcome with
   | `Res (Ok a) ->
     Shardcache.store st.st_cache pd.pd_key a;
     maybe_prune st;
     List.iteri
       (fun i wt ->
          let cache =
            if i = 0 then Protocol.Miss else Protocol.Coalesced
          in
          if i = 0 then begin
            st.st_misses <- st.st_misses + 1; Obs.Metrics.incr m_misses
          end else begin
            st.st_coalesced <- st.st_coalesced + 1; Obs.Metrics.incr m_coalesced
          end;
          st.st_completed <- st.st_completed + 1;
          observe_latency st wt.wt_enq now;
          respond st wt.wt_conn
            { Protocol.rs_id = wt.wt_id;
              rs_body =
                Protocol.R_rewrite
                  (reply_of a ~cache ~want:wt.wt_want
                     ~queue_ms:pd.pd_queue_ms ~rewrite_ms) })
       waiters
   | `Res (Error m) ->
     List.iter (fun wt -> reply_error st wt.wt_conn wt.wt_id 400 m) waiters
   | `Fail m ->
     List.iter
       (fun wt ->
          reply_error st wt.wt_conn wt.wt_id 500 ("rewrite failed: " ^ m))
       waiters
   | `Timeout s ->
     List.iter
       (fun wt ->
          reply_error st wt.wt_conn wt.wt_id 504
            (Printf.sprintf "rewrite timed out after %.1fs" s))
       waiters)

let finish_expired st (pd : pending) =
  Hashtbl.remove st.st_bykey pd.pd_key;
  List.iter
    (fun wt ->
       reply_error st wt.wt_conn wt.wt_id 504 "deadline exceeded in queue")
    (List.rev pd.pd_waiters)

(* --- admission -------------------------------------------------------------- *)

let admit st (c : conn) id (q : Protocol.rewrite_req) =
  st.st_requests <- st.st_requests + 1;
  Obs.Metrics.incr m_requests;
  let now = Unix.gettimeofday () in
  (* Validate the config up front so malformed requests bounce at admission
     rather than poisoning a worker slot. *)
  match Oneshot.config_of_name ~seed:q.Protocol.q_seed q.Protocol.q_config with
  | Error m -> reply_error st c id 400 m
  | Ok _ ->
    (match q.Protocol.q_prog, q.Protocol.q_digest with
     | None, None -> reply_error st c id 400 "request needs prog or digest"
     | None, Some digest ->
       (* Digest-only addressing: purely a cache probe — the server cannot
          rebuild an image it only knows by digest. *)
       let key =
         Oneshot.key ~digest ~config:q.Protocol.q_config ~seed:q.Protocol.q_seed
       in
       (match (Shardcache.find st.st_cache key : Oneshot.artifact option) with
        | Some a ->
          st.st_hits <- st.st_hits + 1; Obs.Metrics.incr m_hits;
          st.st_completed <- st.st_completed + 1;
          observe_latency st now now;
          respond st c
            { Protocol.rs_id = id;
              rs_body =
                Protocol.R_rewrite
                  (reply_of a ~cache:Protocol.Hit ~want:q.Protocol.q_want_image
                     ~queue_ms:0.0 ~rewrite_ms:0.0) }
        | None ->
          reply_error st c id 404
            "unknown digest (not cached here; resubmit with prog)")
     | Some prog, _ ->
       (match Oneshot.digest_of st.st_warm prog with
        | Error m -> reply_error st c id 404 m
        | Ok digest ->
          let key =
            Oneshot.key ~digest ~config:q.Protocol.q_config
              ~seed:q.Protocol.q_seed
          in
          let wt = { wt_conn = c; wt_id = id;
                     wt_want = q.Protocol.q_want_image; wt_enq = now } in
          (match (Shardcache.find st.st_cache key : Oneshot.artifact option) with
           | Some a ->
             st.st_hits <- st.st_hits + 1; Obs.Metrics.incr m_hits;
             st.st_completed <- st.st_completed + 1;
             observe_latency st now now;
             respond st c
               { Protocol.rs_id = id;
                 rs_body =
                   Protocol.R_rewrite
                     (reply_of a ~cache:Protocol.Hit ~want:wt.wt_want
                        ~queue_ms:0.0 ~rewrite_ms:0.0) }
           | None ->
             (match Hashtbl.find_opt st.st_bykey key with
              | Some pd -> pd.pd_waiters <- wt :: pd.pd_waiters
              | None ->
                if List.length st.st_queue >= st.st_opts.max_queue then
                  reply_error st c id 429
                    (Printf.sprintf "queue full (%d pending)"
                       st.st_opts.max_queue)
                else begin
                  let deadline =
                    match st.st_opts.deadline_ms with
                    | Some ms -> now +. (ms /. 1000.0)
                    | None -> infinity
                  in
                  let pd =
                    { pd_key = key;
                      pd_spec = { Oneshot.sp_prog = prog;
                                  sp_config = q.Protocol.q_config;
                                  sp_seed = q.Protocol.q_seed };
                      pd_enq = now; pd_deadline = deadline;
                      pd_queue_ms = 0.0; pd_waiters = [ wt ] }
                  in
                  st.st_queue <- st.st_queue @ [ pd ];
                  Hashtbl.replace st.st_bykey key pd
                end))))

(* --- stats ------------------------------------------------------------------ *)

let stats_now st : Protocol.stats =
  let now = Unix.gettimeofday () in
  let up = Float.max 1e-9 (now -. st.st_t0) in
  let lookups = st.st_hits + st.st_misses in
  let lat = ring_sorted st.st_lat in
  { Protocol.st_uptime_s = up;
    st_jobs = st.st_opts.jobs;
    st_queue_depth = List.length st.st_queue;
    st_inflight = Hashtbl.length st.st_inflight;
    st_requests = st.st_requests;
    st_completed = st.st_completed;
    st_hits = st.st_hits;
    st_misses = st.st_misses;
    st_coalesced = st.st_coalesced;
    st_shed = st.st_shed;
    st_expired = st.st_expired;
    st_errors = st.st_errors;
    st_throughput_rps = float_of_int st.st_completed /. up;
    st_hit_rate =
      (if lookups = 0 then 0.0
       else 100.0 *. float_of_int st.st_hits /. float_of_int lookups);
    st_p50_ms = Obs.Metrics.percentile lat 50.0;
    st_p90_ms = Obs.Metrics.percentile lat 90.0;
    st_p99_ms = Obs.Metrics.percentile lat 99.0;
    st_cache_entries = Shardcache.entries st.st_cache;
    st_cache_bytes = Shardcache.size_bytes st.st_cache }

(* --- frame handling --------------------------------------------------------- *)

let handle_frame st (c : conn) payload =
  match Protocol.decode_request payload with
  | Error m ->
    reply_error st c 0 400 ("bad request: " ^ m)
  | Ok rq ->
    (match rq.Protocol.rq_body with
     | Protocol.Ping ->
       respond st c { Protocol.rs_id = rq.Protocol.rq_id; rs_body = Protocol.R_pong }
     | Protocol.Stats ->
       respond st c
         { Protocol.rs_id = rq.Protocol.rq_id;
           rs_body = Protocol.R_stats (stats_now st) }
     | Protocol.Shutdown ->
       respond st c { Protocol.rs_id = rq.Protocol.rq_id; rs_body = Protocol.R_bye };
       st.st_draining <- true
     | Protocol.Rewrite q -> admit st c rq.Protocol.rq_id q)

let read_conn st (c : conn) =
  if not (c.c_eof || c.c_dead) then
    match Protocol.read_ready c.c_defr c.c_rfd ~on_frame:(handle_frame st c) with
    | Ok () -> ()
    | Error `Eof -> c.c_eof <- true
    | Error (`Bad m) ->
      (* Unframeable stream: answer once, then cut the connection. *)
      reply_error st c 0 400 m;
      c.c_eof <- true

let flush_conn (c : conn) =
  if (not c.c_dead) && not (Protocol.flush_outbox c.c_out c.c_wfd) then
    c.c_eof <- true                       (* peer gone *)

(* --- dispatch --------------------------------------------------------------- *)

let sweep_queue st now =
  let expired, keep =
    List.partition (fun pd -> now > pd.pd_deadline) st.st_queue
  in
  st.st_queue <- keep;
  List.iter (finish_expired st) expired

let inline_compute st (pd : pending) =
  let t0 = Unix.gettimeofday () in
  let res =
    try `Res (Oneshot.rewrite st.st_warm pd.pd_spec)
    with e -> `Fail (Printexc.to_string e)
  in
  let rewrite_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  finish st pd res ~rewrite_ms

let rec dispatch st =
  match st.st_queue with
  | [] -> ()
  | pd :: rest ->
    let now = Unix.gettimeofday () in
    if now > pd.pd_deadline then begin
      st.st_queue <- rest;
      finish_expired st pd;
      dispatch st
    end
    else (
      match st.st_pool with
      | None ->
        st.st_queue <- rest;
        pd.pd_queue_ms <- (now -. pd.pd_enq) *. 1000.0;
        inline_compute st pd;
        dispatch st
      | Some p ->
        (match Jobs.Persist.try_submit p pd.pd_spec with
         | None -> ()                           (* every worker busy *)
         | Some ticket ->
           st.st_queue <- rest;
           pd.pd_queue_ms <- (now -. pd.pd_enq) *. 1000.0;
           Hashtbl.replace st.st_inflight ticket pd;
           dispatch st))

let handle_pool_result st (c : _ Jobs.Persist.completion) =
  match Hashtbl.find_opt st.st_inflight c.ticket with
  | None -> ()
  | Some pd ->
    Hashtbl.remove st.st_inflight c.ticket;
    let rewrite_ms = c.clock.wall_s *. 1000.0 in
    (match c.outcome with
     | Jobs.Persist.Done r -> finish st pd (`Res r) ~rewrite_ms
     | Jobs.Persist.Failed m -> finish st pd (`Fail m) ~rewrite_ms
     | Jobs.Persist.Timed_out s -> finish st pd (`Timeout s) ~rewrite_ms)

(* --- the loop --------------------------------------------------------------- *)

let run ?(opts = default_opts) (listen : listen) : int =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let st =
    { st_opts = opts;
      st_cache = Shardcache.create ~shards:opts.shards ~dir:opts.cache_dir ();
      st_warm = Oneshot.warm ();
      st_pool =
        (if opts.jobs <= 0 then None
         else begin
           (* Each forked worker owns a private warm table, populated lazily
              and kept across requests — fork-inherited closure state. *)
           let warm_w = Oneshot.warm () in
           let f (spec : Oneshot.spec) = Oneshot.rewrite warm_w spec in
           Some (Jobs.Persist.create ?timeout_s:opts.timeout_s ~jobs:opts.jobs f)
         end);
      st_t0 = Unix.gettimeofday ();
      st_conns = [];
      st_queue = [];
      st_bykey = Hashtbl.create 64;
      st_inflight = Hashtbl.create 16;
      st_lat = ring ();
      st_requests = 0; st_completed = 0; st_hits = 0; st_misses = 0;
      st_coalesced = 0; st_shed = 0; st_expired = 0; st_errors = 0;
      st_stores = 0; st_draining = false }
  in
  let drain _ = st.st_draining <- true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle drain) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle drain) in
  let lfd =
    match listen with
    | L_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      Some fd
    | L_pair (rfd, wfd) ->
      st.st_conns <- [ mk_conn rfd wfd ];
      None
  in
  logf st "[serve] listening (jobs=%d shards=%d queue<=%d)\n%!" opts.jobs
    opts.shards opts.max_queue;
  let accept_loop fd =
    let rec go () =
      match Unix.accept fd with
      | (cfd, _) ->
        st.st_conns <- mk_conn cfd cfd :: st.st_conns;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let gc_conns () =
    List.iter
      (fun c ->
         if (not c.c_dead) && c.c_eof && not (Protocol.has_output c.c_out) then begin
           c.c_dead <- true;
           (try Unix.close c.c_rfd with Unix.Unix_error _ -> ());
           if c.c_wfd <> c.c_rfd then
             try Unix.close c.c_wfd with Unix.Unix_error _ -> ()
         end)
      st.st_conns;
    st.st_conns <- List.filter (fun c -> not c.c_dead) st.st_conns
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    sweep_queue st now;
    (match st.st_pool with
     | Some p -> List.iter (handle_pool_result st) (Jobs.Persist.expire p ~now)
     | None -> ());
    dispatch st;
    gc_conns ();
    Obs.Metrics.set_max m_queue_depth (List.length st.st_queue);
    let work_left =
      st.st_queue <> [] || Hashtbl.length st.st_inflight > 0
    in
    let out_left = List.exists (fun c -> Protocol.has_output c.c_out) st.st_conns in
    let stdio_done =
      lfd = None && st.st_conns = [] && not work_left
    in
    if (st.st_draining && (not work_left) && not out_left) || stdio_done then
      ()                                          (* clean exit *)
    else begin
      let rfds =
        (if st.st_draining then []
         else
           (match lfd with Some fd -> [ fd ] | None -> [])
           @ List.filter_map
               (fun c -> if c.c_eof then None else Some c.c_rfd)
               st.st_conns)
        @ (match st.st_pool with Some p -> Jobs.Persist.fds p | None -> [])
      in
      let wfds =
        List.filter_map
          (fun c -> if Protocol.has_output c.c_out then Some c.c_wfd else None)
          st.st_conns
      in
      let timeout =
        let dl =
          List.fold_left
            (fun acc pd -> Float.min acc pd.pd_deadline)
            infinity st.st_queue
        in
        let dl =
          match st.st_pool with
          | Some p -> Float.min dl (Jobs.Persist.next_deadline p)
          | None -> dl
        in
        if dl = infinity then 0.25
        else Float.max 0.0 (Float.min 0.25 (dl -. now))
      in
      match Unix.select rfds wfds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready_r, ready_w, _ ->
        (match lfd with
         | Some fd when List.mem fd ready_r -> accept_loop fd
         | _ -> ());
        (match st.st_pool with
         | Some p ->
           let pool_fds = Jobs.Persist.fds p in
           List.iter
             (fun fd ->
                if List.mem fd pool_fds then
                  Option.iter (handle_pool_result st)
                    (Jobs.Persist.handle_ready p fd))
             ready_r
         | None -> ());
        List.iter
          (fun c -> if List.mem c.c_rfd ready_r then read_conn st c)
          st.st_conns;
        List.iter
          (fun c -> if List.mem c.c_wfd ready_w then flush_conn c)
          st.st_conns;
        loop ()
    end
  in
  let rc =
    match loop () with
    | () -> 0
    | exception e ->
      Printf.eprintf "[serve] fatal: %s\n%!" (Printexc.to_string e);
      1
  in
  (* teardown *)
  (match st.st_pool with Some p -> Jobs.Persist.shutdown p | None -> ());
  List.iter
    (fun c ->
       if not c.c_dead then begin
         (try Unix.close c.c_rfd with Unix.Unix_error _ -> ());
         if c.c_wfd <> c.c_rfd then
           try Unix.close c.c_wfd with Unix.Unix_error _ -> ()
       end)
    st.st_conns;
  (match lfd, listen with
   | Some fd, L_socket path ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink path with Unix.Unix_error _ -> ())
   | _ -> ());
  (match opts.cache_max_bytes with
   | Some mb -> ignore (Shardcache.prune st.st_cache ~max_bytes:mb)
   | None -> ());
  ignore (Sys.signal Sys.sigterm old_term);
  ignore (Sys.signal Sys.sigint old_int);
  logf st "[serve] drained: %d completed, %d hits, %d shed\n%!"
    st.st_completed st.st_hits st.st_shed;
  rc

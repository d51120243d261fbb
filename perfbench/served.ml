(* The two serve workloads: the ropserved daemon, spawned from its own
   binary with [jobs] resident workers, driven by this process over
   [conns ~cold] connections in a closed loop (each connection sends its next
   request only when the previous reply is in and decoded, like build nodes
   blocking on an artifact).

   The key set is every registry program x every config_matrix entry, each
   with a seed derived from the workload seed; one pass requests each key
   exactly once, in a per-pass seeded order.

   - serve-cold-summary: the daemon's cache directory is emptied before each
     pass and replies carry no image, so the rewriter, Image.serialize, the
     worker pipe and the cache store do the work.
   - serve-warm-fetch: the cache filled during set-up answers every request
     and replies carry the image, so hex transport, JSON and cache reads do
     the work.

   Every reply's image digest is checked against an in-process
   Serve.Oneshot.one_shot of the same key. *)

module P = Serve.Protocol
module O = Serve.Oneshot
module M = Measure

(* Sized to a 2-core box: one worker per core.  Cold passes and the cache
   fill use as many connections as workers, so queueing comes only from the
   daemon's own event loop.  Warm hits are answered on that event loop
   alone, one at a time, so warm passes use one connection: a second one
   would only wait behind the first. *)
let jobs = 2
let conns ~cold = if cold then jobs else 1
let shards = 4

type key = { k_prog : string; k_config : string; k_seed : int }

let derive ~seed name =
  Int64.to_int
    (Int64.logand (Util.Rng.next64 (Util.Rng.of_key ~seed name)) 0x3FFFFFFFL)

let keys ~seed =
  List.concat_map
    (fun prog ->
       List.map
         (fun config ->
            { k_prog = prog; k_config = config;
              k_seed = derive ~seed (prog ^ "/" ^ config) })
         (O.matrix_names ()))
    (O.names ())
  |> Array.of_list

let spec k = { O.sp_prog = k.k_prog; sp_config = k.k_config; sp_seed = k.k_seed }

let key_name k = Printf.sprintf "%s/%s/seed=%d" k.k_prog k.k_config k.k_seed

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

(* --- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; sock : string; cache_dir : string }

let daemon_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/ropserved.exe"

let ping sock =
  match Serve.Client.connect sock with
  | Error _ -> false
  | Ok c ->
    let up = Serve.Client.ping c = Ok () in
    Serve.Client.close c;
    up

let stop d =
  (match Serve.Client.connect d.sock with
   | Ok c -> ignore (Serve.Client.shutdown c); Serve.Client.close c
   | Error _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when n > 0 -> Unix.sleepf 0.02; reap (n - 1)
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap n
  in
  reap 500

(* Paths stay relative to the run directory: a Unix socket path is limited
   to about a hundred bytes. *)
let spawn dir =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "sock" in
  let cache_dir = Filename.concat dir "cache" in
  let exe = daemon_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; sock; "--jobs"; string_of_int jobs; "--shards";
         string_of_int shards; "--cache-dir"; cache_dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; sock; cache_dir } in
  let rec wait n =
    if ping sock then d
    else if n = 0 then begin
      stop d;
      failwith ("ropserved did not come up on " ^ sock)
    end
    else begin Unix.sleepf 0.01; wait (n - 1) end
  in
  wait 1000

(* Empty every shard: the next pass finds nothing cached. *)
let clear_cache d =
  for i = 0 to shards - 1 do
    Jobs.Cache.clear
      ~dir:(Filename.concat d.cache_dir (Serve.Shardcache.shard_name i)) ()
  done

(* Daemon plus its resident workers. *)
let daemon_rss_mb d =
  List.fold_left (fun acc p -> acc +. M.peak_rss_mb p) 0.0
    (d.pid :: M.children d.pid)

let daemon_stats d =
  match Serve.Client.connect d.sock with
  | Error m -> Error m
  | Ok c ->
    let s = Serve.Client.stats c in
    Serve.Client.close c;
    s

(* --- the closed-loop client --------------------------------------------- *)

(* The waterfall of one good reply, in ms. *)
type sample = {
  s_lat : float;
  s_queue : float;                (* the reply's queue_ms *)
  s_rewrite : float;              (* the reply's rewrite_ms (0 on hits) *)
  s_decode : float;
  s_bytes : int;
  s_hit : bool;
}

(* One reply as the client saw it. *)
type reply = {
  r_key : int;
  r_lat_ms : float;               (* send to decoded reply *)
  r_decode_ms : float;            (* feed + decode_response *)
  r_bytes : int;                  (* frame payload bytes *)
  r_body : (P.rewrite_reply, string) result;
}

type conn = {
  fd : Unix.file_descr;
  defr : P.deframer;
  mutable out : string;
  mutable pending : (int * float) option;   (* key index, send time *)
  mutable feed_s : float;                   (* deframing time of this reply *)
}

let connect d =
  match Serve.Client.connect d.sock with
  | Error m -> failwith m
  | Ok c ->
    let fd = c.Serve.Client.t_rfd in
    Unix.set_nonblock fd;
    { fd; defr = P.deframer (); out = ""; pending = None; feed_s = 0.0 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let max_pass_s = 120.0

(* Request every key of [order] once over [cs]; returns the replies and the
   pass wall time.  [traced] wraps decoding in a span. *)
let pass cs (keys : key array) ~want ~traced (order : int list) =
  let todo = ref order in
  let replies = ref [] in
  let buf = Bytes.create 65536 in
  let t0 = M.now () in
  let send c i =
    let k = keys.(i) in
    let rq =
      { P.rq_id = i + 1;
        rq_body =
          P.Rewrite
            { P.q_prog = Some k.k_prog; q_digest = None; q_config = k.k_config;
              q_seed = k.k_seed; q_want_image = want } }
    in
    c.out <- P.frame (P.encode_request rq);
    c.pending <- Some (i, M.now ());
    c.feed_s <- 0.0
  in
  let on_frame c payload =
    match c.pending with
    | None -> failwith "reply without a request in flight"
    | Some (i, t_send) ->
      let decode () = P.decode_response payload in
      let rs, dt =
        M.timed (fun () ->
            if traced then M.span "protocol.decode" decode else decode ())
      in
      let t_done = M.now () in
      let body =
        match rs with
        | Error m -> Error ("undecodable reply: " ^ m)
        | Ok { P.rs_id; _ } when rs_id <> i + 1 ->
          Error (Printf.sprintf "reply id %d for request %d" rs_id (i + 1))
        | Ok { P.rs_body = P.R_rewrite r; _ } -> Ok r
        | Ok { P.rs_body = P.R_error e; _ } ->
          Error (Printf.sprintf "error %d: %s" e.code e.msg)
        | Ok _ -> Error "unexpected reply kind"
      in
      replies :=
        { r_key = i; r_lat_ms = (t_done -. t_send) *. 1000.0;
          r_decode_ms = (c.feed_s +. dt) *. 1000.0;
          r_bytes = String.length payload; r_body = body }
        :: !replies;
      c.pending <- None
  in
  let read c =
    let rec go () =
      match Unix.read c.fd buf 0 (Bytes.length buf) with
      | 0 -> failwith "ropserved closed a connection"
      | n ->
        let chunk = Bytes.sub_string buf 0 n in
        let feed () = P.feed c.defr chunk in
        let frames, dt =
          M.timed (fun () ->
              if traced then M.span "protocol.feed" feed else feed ())
        in
        c.feed_s <- c.feed_s +. dt;
        (match frames with
         | Error m -> failwith ("unframeable reply stream: " ^ m)
         | Ok fs -> List.iter (on_frame c) fs);
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let flush c =
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | n -> c.out <- String.sub c.out n (String.length c.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let busy () = List.exists (fun c -> c.pending <> None) cs in
  while !todo <> [] || busy () do
    if M.now () -. t0 > max_pass_s then failwith "serve pass exceeded its time limit";
    List.iter
      (fun c ->
         match c.pending, !todo with
         | None, i :: rest -> todo := rest; send c i; flush c
         | _ -> ())
      cs;
    let rfds = List.filter_map (fun c -> if c.pending <> None then Some c.fd else None) cs in
    let wfds = List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) cs in
    match Unix.select rfds wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
      List.iter (fun c -> if List.mem c.fd w then flush c) cs;
      List.iter (fun c -> if List.mem c.fd r then read c) cs
  done;
  (List.rev !replies, M.now () -. t0)

(* --- checks ------------------------------------------------------------- *)

let chain_bytes (r : P.rewrite_reply) =
  List.fold_left
    (fun acc (_, st) ->
       match
         List.find_map
           (fun w ->
              if String.length w > 6 && String.sub w 0 6 = "bytes=" then
                int_of_string_opt (String.sub w 6 (String.length w - 6))
              else None)
           (String.split_on_char ' ' st)
       with
       | Some n -> acc + n
       | None -> acc)
    0 r.P.rr_funcs

(* Check one pass's replies; returns its exact counts. *)
let check_pass fs (keys : key array) (expected : string array) ~want replies =
  let uses = ref 0 and uniq = ref 0 and chain = ref 0 and img = ref 0 in
  List.iter
    (fun rp ->
       let k = keys.(rp.r_key) in
       match rp.r_body with
       | Error m -> M.fail fs "%s: %s" (key_name k) m
       | Ok r ->
         uses := !uses + r.P.rr_gadget_uses;
         uniq := !uniq + r.P.rr_unique_gadgets;
         chain := !chain + chain_bytes r;
         let want_cache = if want then P.Hit else P.Miss in
         if r.P.rr_image_digest <> expected.(rp.r_key) then
           M.fail fs "%s: served image digest %s, one-shot digest %s" (key_name k)
             r.P.rr_image_digest expected.(rp.r_key)
         else if r.P.rr_cache <> want_cache then
           M.fail fs "%s: cache %s, expected %s" (key_name k)
             (P.cache_status_to_string r.P.rr_cache)
             (P.cache_status_to_string want_cache)
         else if want then
           match r.P.rr_image with
           | None -> M.fail fs "%s: image requested but not sent" (key_name k)
           | Some bytes ->
             img := !img + String.length bytes;
             if Digest.to_hex (Digest.string bytes) <> r.P.rr_image_digest then
               M.fail fs "%s: image bytes do not match their digest" (key_name k))
    replies;
  [ ("ropc.gadget_uses", !uses); ("ropc.unique_gadgets", !uniq);
    ("ropc.chain_bytes", !chain); ("image.bytes", !img) ]

(* --- in-process replay of the daemon's layers (traced run) --------------- *)

(* The daemon's layers cannot be traced from outside its process, so the
   traced run replays one pass's keys through the same public calls in
   this process: compile, prepare (gadget scan), rewrite (with the in-tree
   rewrite.* spans), serialize, shard-cache store and find, and reply
   encode/decode.  Returns per-layer metrics. *)
let replay ~dir ~want (keys : key array) =
  let sc = Serve.Shardcache.create ~shards ~dir:(Filename.concat dir "replay-cache") () in
  let acc = M.rewrites () in
  let by_prog = Hashtbl.create 16 in
  let size_x = ref [] and img_bytes = ref 0 in
  Array.iteri
    (fun i k ->
       let e = Option.get (O.find k.k_prog) in
       let ctx, in_bytes =
         match Hashtbl.find_opt by_prog k.k_prog with
         | Some v -> v
         | None ->
           let img = M.compile acc e.O.e_build in
           let v =
             (M.prepare acc img ~functions:e.O.e_funcs,
              String.length (Image.serialize img))
           in
           Hashtbl.replace by_prog k.k_prog v;
           v
       in
       let config = Result.get_ok (O.config_of_name ~seed:k.k_seed k.k_config) in
       let r = M.rewrite acc ctx ~config in
       let ser = M.serialize acc r.Ropc.Rewriter.image in
       img_bytes := !img_bytes + String.length ser;
       size_x := (float_of_int (String.length ser) /. float_of_int in_bytes) :: !size_x;
       let art =
         { O.a_prog = k.k_prog; a_digest = ""; a_key = key_name k; a_image = ser;
           a_image_digest = Digest.to_hex (Digest.string ser);
           a_funcs = List.map (fun (f, fr) -> (f, O.func_status fr)) r.Ropc.Rewriter.funcs;
           a_uses = r.Ropc.Rewriter.total_gadget_uses;
           a_uniq = r.Ropc.Rewriter.unique_gadgets }
       in
       M.span "shardcache.store" (fun () -> Serve.Shardcache.store sc art.O.a_key art);
       let a : O.artifact =
         Option.get (M.span "shardcache.find" (fun () -> Serve.Shardcache.find sc art.O.a_key))
       in
       let reply =
         { P.rs_id = i + 1;
           rs_body =
             P.R_rewrite
               { P.rr_prog = a.O.a_prog; rr_digest = a.O.a_digest; rr_key = a.O.a_key;
                 rr_cache = P.Hit; rr_image = (if want then Some a.O.a_image else None);
                 rr_image_digest = a.O.a_image_digest; rr_funcs = a.O.a_funcs;
                 rr_gadget_uses = a.O.a_uses; rr_unique_gadgets = a.O.a_uniq;
                 rr_queue_ms = 0.0; rr_rewrite_ms = 0.0 } }
       in
       ignore (M.span "protocol.encode" (fun () -> P.frame (P.encode_response reply))))
    keys;
  let sums = M.span_sums () in
  let per name = (M.span_get sums name).M.self_ms /. float_of_int (Array.length keys) in
  M.rewrite_layers sums acc
  @ [ ("image.bytes", float_of_int !img_bytes);
      ("image.size_x", M.geomean !size_x);
      ("shardcache.store_ms", per "shardcache.store");
      ("shardcache.find_ms", per "shardcache.find");
      ("protocol.encode_ms", per "protocol.encode") ]

(* --- the workload ------------------------------------------------------- *)

let shuffled ~seed pass_i n = M.shuffle ~seed pass_i (List.init n Fun.id)

let run ~cold ~seed ~seconds ~traced ~must_fail ~dir : M.report =
  (* a daemon that dies mid-write must surface as an error, not a signal *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let fs = M.failures () in
  let keys = keys ~seed in
  let n = Array.length keys in
  let want = not cold in
  (* reference digests from the one-shot path, before anything is timed *)
  let expected =
    Array.map
      (fun k ->
         match O.one_shot (spec k) with
         | Ok a -> a.O.a_image_digest
         | Error m -> M.fail fs "%s: one-shot rewrite failed: %s" (key_name k) m; "")
      keys
  in
  if must_fail then begin
    let i = Util.Rng.int (Util.Rng.create seed) n in
    expected.(i) <- Digest.to_hex (Digest.string expected.(i))
  end;
  let attempted = ref 0 in
  let check ~want replies =
    attempted := !attempted + List.length replies;
    check_pass fs keys expected ~want replies
  in
  (* set-up: spawn the daemon and fill its cache, five times; the last
     daemon stays up for the measured passes *)
  let setup i =
    let t0 = M.now () in
    let d = spawn (Filename.concat dir (Printf.sprintf "daemon%d" i)) in
    match
      let cs = List.init jobs (fun _ -> connect d) in
      Fun.protect ~finally:(fun () -> List.iter close_conn cs) (fun () ->
          fst (pass cs keys ~want:false ~traced:false (shuffled ~seed (-1 - i) n)))
    with
    | replies ->
      let dt = M.now () -. t0 in
      ignore (check ~want:false replies);
      (d, dt)
    | exception e -> stop d; raise e
  in
  let rec setups i acc =
    let d, dt = setup i in
    if i = 5 then (d, List.rev (dt :: acc))
    else begin
      stop d;
      rm_rf (Filename.concat dir (Printf.sprintf "daemon%d" i));
      setups (i + 1) (dt :: acc)
    end
  in
  let d, setup_times = setups 1 [] in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let cs = List.init (conns ~cold) (fun _ -> connect d) in
  Fun.protect ~finally:(fun () -> List.iter close_conn cs) @@ fun () ->
  let ledger = M.ledger () in
  (* the waterfall keeps only the timings of each good reply *)
  let samples = ref [] in
  let measure ~traced seconds =
    samples := [];
    let lat = ref [] in
    let passes =
      M.repeat ~seconds (fun pi ->
          if cold then clear_cache d;
          let replies, wall =
            pass cs keys ~want ~traced (shuffled ~seed (pi + if traced then 1000 else 0) n)
          in
          M.check_counts fs ledger (check ~want replies);
          List.iter
            (fun rp ->
               lat := (key_name keys.(rp.r_key), rp.r_lat_ms) :: !lat;
               match rp.r_body with
               | Ok r ->
                 samples :=
                   { s_lat = rp.r_lat_ms; s_queue = r.P.rr_queue_ms;
                     s_rewrite = r.P.rr_rewrite_ms; s_decode = rp.r_decode_ms;
                     s_bytes = rp.r_bytes; s_hit = r.P.rr_cache = P.Hit }
                   :: !samples
               | Error _ -> ())
            replies;
          (wall, List.length (List.filter (fun r -> Result.is_ok r.r_body) replies)))
    in
    (passes, !lat)
  in
  let mean f = M.mean (List.map f !samples) in
  let residual s = s.s_lat -. s.s_queue -. s.s_rewrite in
  let waterfall () =
    Printf.sprintf
      "waterfall (n=%d replies, means): latency %.3f ms = queue %.3f + worker \
       rewrite %.3f + residual %.3f ms; decode %.3f ms of the residual"
      (List.length !samples) (mean (fun s -> s.s_lat)) (mean (fun s -> s.s_queue))
      (mean (fun s -> s.s_rewrite)) (mean residual) (mean (fun s -> s.s_decode))
  in
  let untraced_s = if traced then seconds /. 2.0 else seconds in
  let passes, lat = measure ~traced:false untraced_s in
  let e2e =
    { M.setups = setup_times; passes; latencies_ms = lat;
      conns = conns ~cold;
      rss_mb = daemon_rss_mb d }
  in
  let lines = [ waterfall () ] in
  if not traced then
    { M.attempted = !attempted; fs; e2e; traced_e2e = None; counts = M.counts ledger;
      layers = []; lines }
  else begin
    M.start_tracing ();
    let tpasses, tlat = measure ~traced:true (seconds /. 2.0) in
    let traced_e2e = { e2e with M.passes = tpasses; latencies_ms = tlat } in
    let shed, expired, errors =
      match daemon_stats d with
      | Ok st -> (st.P.st_shed, st.P.st_expired, st.P.st_errors)
      | Error m -> M.fail fs "stats verb failed: %s" m; (0, 0, 0)
    in
    let misses = List.filter (fun s -> not s.s_hit) !samples in
    let serve_layers =
      [ ("serve.queue_wait_ms", mean (fun s -> s.s_queue));
        ("serve.worker_rewrite_ms", M.mean (List.map (fun s -> s.s_rewrite) misses));
        ("serve.residual_ms", mean residual);
        ("serve.hit_frac", mean (fun s -> if s.s_hit then 1.0 else 0.0));
        ("serve.shed", float_of_int shed);
        ("serve.expired", float_of_int expired);
        ("serve.errors", float_of_int errors);
        ("protocol.decode_ms", mean (fun s -> s.s_decode));
        ("protocol.reply_bytes", mean (fun s -> float_of_int s.s_bytes)) ]
    in
    { M.attempted = !attempted; fs; e2e; traced_e2e = Some traced_e2e;
      counts = M.counts ledger; layers = serve_layers @ replay ~dir ~want keys;
      lines = lines @ [ "traced " ^ waterfall () ] }
  end

(* Load generator and acceptance harness for the obfuscation service.

   Two ways to use it:

   - against a running daemon:
       ropserved --socket /tmp/rop.sock --jobs 4 &
       ropbench_client --socket /tmp/rop.sock --mode rate --rate 50

   - self-contained (--selftest): forks its own server on a temp socket,
     replays the program x config x seed grid cold (populating the cache)
     and warm (hitting it), measures the serial one-shot baseline in
     process, checks byte-identity of served vs. one-shot artifacts and the
     warm hit rate, writes BENCH_serve.json, and — when --baseline points
     at a committed run — gates the warm speedup at 95% of the committed
     value (capped, so a slow CI box fails but a fast box cannot ratchet
     the floor), re-measuring once before failing.  CI runs this as the
     @serve alias. *)

open Cmdliner

let regression_floor = 0.95

(* Warm serving is cache hits vs. full rewrites, so raw speedups are large
   and noisy; the cap keeps the gate near the acceptance threshold (3x)
   instead of chasing the measurement tail. *)
let speedup_cap = 5.0

let parse_csv s =
  String.split_on_char ',' s |> List.filter (fun x -> x <> "")

let fail_setup fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* --- in-process server lifecycle -------------------------------------------- *)

let spawn_server opts path =
  match Unix.fork () with
  | 0 ->
    let rc =
      try Serve.Server.run ~opts (Serve.Server.L_socket path)
      with e ->
        Printf.eprintf "[serve] died: %s\n%!" (Printexc.to_string e);
        1
    in
    Unix._exit rc
  | pid ->
    let rec wait n =
      if n <= 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        fail_setup "server did not come up on %s" path
      end;
      match Serve.Client.connect path with
      | Ok c ->
        let up = Serve.Client.ping c = Ok () in
        Serve.Client.close c;
        if not up then (Unix.sleepf 0.05; wait (n - 1))
      | Error _ -> Unix.sleepf 0.05; wait (n - 1)
    in
    wait 200;
    pid

let stop_server pid path =
  (match Serve.Client.connect path with
   | Ok c ->
     ignore (Serve.Client.shutdown c);
     Serve.Client.close c
   | Error _ ->
     (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if n <= 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        None
      end
      else begin Unix.sleepf 0.05; reap (n - 1) end
    | _, Unix.WEXITED rc -> Some rc
    | _, _ -> None
  in
  reap 200

(* --- passes ----------------------------------------------------------------- *)

let print_pass name (r : Serve.Loadgen.result) =
  Printf.printf
    "%-6s %6.2fs  %5d done  %4.0f rps  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  \
     hits %3.0f%%  shed %d  expired %d  errors %d\n%!"
    name r.Serve.Loadgen.r_wall_s r.Serve.Loadgen.r_completed
    r.Serve.Loadgen.r_rps r.Serve.Loadgen.r_p50_ms r.Serve.Loadgen.r_p90_ms
    r.Serve.Loadgen.r_p99_ms r.Serve.Loadgen.r_hit_rate
    r.Serve.Loadgen.r_shed r.Serve.Loadgen.r_expired r.Serve.Loadgen.r_errors

let load_pass ~socket ~conns ~mode ~duration ~specs ~rounds name =
  match
    Serve.Loadgen.run ~socket ~conns ~mode ~duration_s:duration ~specs ~rounds ()
  with
  | Error m -> fail_setup "%s pass failed: %s" name m
  | Ok r -> print_pass name r; r

(* Serial baseline: the cold CLI path (compile + scan + rewrite per call),
   which is exactly [Oneshot.one_shot].  Returns the local artifacts so the
   identity check can compare served bytes against them. *)
let serial_pass specs =
  let t0 = Unix.gettimeofday () in
  let arts =
    List.map
      (fun (s : Serve.Loadgen.spec) ->
         match
           Serve.Oneshot.one_shot
             { Serve.Oneshot.sp_prog = s.Serve.Loadgen.g_prog;
               sp_config = s.Serve.Loadgen.g_config;
               sp_seed = s.Serve.Loadgen.g_seed }
         with
         | Ok a -> (s, a)
         | Error m ->
           fail_setup "serial rewrite of %s/%s/seed=%d failed: %s"
             s.Serve.Loadgen.g_prog s.Serve.Loadgen.g_config
             s.Serve.Loadgen.g_seed m)
      specs
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rps = float_of_int (List.length specs) /. Float.max 1e-9 wall in
  Printf.printf "serial %6.2fs  %5d done  %4.1f rewrites/sec\n%!" wall
    (List.length specs) rps;
  (arts, wall, rps)

(* Byte-identity: every spec's served artifact digest and full image bytes
   must equal the local one-shot ones. *)
let identity_pass ~socket arts =
  match Serve.Client.connect socket with
  | Error m -> fail_setup "identity pass: %s" m
  | Ok c ->
    let mismatches = ref 0 and checked = ref 0 in
    List.iter
      (fun ((s : Serve.Loadgen.spec), (a : Serve.Oneshot.artifact)) ->
         match
           Serve.Client.rewrite c ~want_image:true
             ~prog:s.Serve.Loadgen.g_prog ~config:s.Serve.Loadgen.g_config
             ~seed:s.Serve.Loadgen.g_seed ()
         with
         | Error m ->
           incr mismatches;
           Printf.eprintf "identity: %s/%s/seed=%d errored: %s\n"
             s.Serve.Loadgen.g_prog s.Serve.Loadgen.g_config
             s.Serve.Loadgen.g_seed m
         | Ok rr ->
           incr checked;
           if rr.Serve.Protocol.rr_image_digest <> a.Serve.Oneshot.a_image_digest
           then begin
             incr mismatches;
             Printf.eprintf "identity: %s/%s/seed=%d digest mismatch\n"
               s.Serve.Loadgen.g_prog s.Serve.Loadgen.g_config
               s.Serve.Loadgen.g_seed
           end;
           if rr.Serve.Protocol.rr_image <> Some a.Serve.Oneshot.a_image
           then begin
             incr mismatches;
             Printf.eprintf "identity: %s/%s/seed=%d byte mismatch\n"
               s.Serve.Loadgen.g_prog s.Serve.Loadgen.g_config
               s.Serve.Loadgen.g_seed
           end)
      arts;
    Serve.Client.close c;
    Printf.printf "identity: %d specs checked, %d mismatches\n%!" !checked
      !mismatches;
    (!checked, !mismatches)

(* --- BENCH_serve.json ------------------------------------------------------- *)

let bench_json ~quick ~specs_n ~programs_n ~configs_n ~seeds_n ~jobs ~shards
    ~conns ~serial_rps ~serial_wall
    ~(cold : Serve.Loadgen.result) ~(warm : Serve.Loadgen.result)
    ~identity_checked ~identity_mismatches ~pass =
  let open Serve.Loadgen in
  let module J = Obs.Json in
  let load (r : Serve.Loadgen.result) =
    J.Obj
      [ ("rps", J.decimals 2 r.r_rps); ("wall_s", J.decimals 3 r.r_wall_s);
        ("completed", J.int r.r_completed);
        ("p50_ms", J.decimals 3 r.r_p50_ms); ("p90_ms", J.decimals 3 r.r_p90_ms);
        ("p99_ms", J.decimals 3 r.r_p99_ms);
        ("hit_rate", J.decimals 1 r.r_hit_rate); ("shed", J.int r.r_shed);
        ("expired", J.int r.r_expired); ("errors", J.int r.r_errors) ]
  in
  let speedup (r : Serve.Loadgen.result) =
    J.decimals 3 (r.r_rps /. Float.max 1e-9 serial_rps)
  in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "bench_serve/v1"); ("quick", J.Bool quick);
         ("grid",
          J.Obj
            [ ("programs", J.int programs_n); ("configs", J.int configs_n);
              ("seeds", J.int seeds_n); ("specs", J.int specs_n) ]);
         ("server",
          J.Obj
            [ ("jobs", J.int jobs); ("shards", J.int shards);
              ("conns", J.int conns) ]);
         ("serial",
          J.Obj
            [ ("rewrites_per_sec", J.decimals 2 serial_rps);
              ("wall_s", J.decimals 3 serial_wall) ]);
         ("served_cold", load cold); ("served_warm", load warm);
         ("speedup_cold_vs_serial", speedup cold);
         ("speedup_warm_vs_serial", speedup warm);
         ("identity",
          J.Obj
            [ ("checked", J.int identity_checked);
              ("mismatches", J.int identity_mismatches) ]);
         ("acceptance",
          J.Obj
            [ ("criterion",
               J.Str
                 "byte-identical artifacts and warm served throughput >= 3x \
                  serial one-shot at concurrency = pool size");
              ("pass", J.Bool pass) ]) ])
  ^ "\n"

let read_committed_speedup file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse s with
  | Error m -> fail_setup "bad baseline %s: %s" file m
  | Ok j ->
    (match
       Option.bind (Obs.Json.member "speedup_warm_vs_serial" j)
         Obs.Json.as_float
     with
     | Some v -> v
     | None -> fail_setup "baseline %s lacks speedup_warm_vs_serial" file)

(* --- main ------------------------------------------------------------------- *)

let main socket jobs conns shards cache_dir max_queue deadline_ms mode_s rate
    duration rounds programs_s configs_s seeds_s json baseline selftest
    min_hit_rate quick verbose =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let programs =
    match programs_s with
    | Some s -> parse_csv s
    | None -> if quick then [ "fact"; "base64" ] else Serve.Oneshot.names ()
  in
  let configs =
    match configs_s with
    | Some s -> parse_csv s
    | None ->
      if quick then [ "plain"; "rop0.25"; "rop1.0+p2+gc" ]
      else Serve.Oneshot.matrix_names ()
  in
  let seeds =
    match seeds_s with
    | Some s ->
      List.map
        (fun x ->
           match int_of_string_opt x with
           | Some v -> v
           | None -> fail_setup "bad seed %S" x)
        (parse_csv s)
    | None -> [ 1 ]
  in
  List.iter
    (fun p ->
       if Serve.Oneshot.find p = None then fail_setup "unknown program %S" p)
    programs;
  List.iter
    (fun c ->
       match Serve.Oneshot.config_of_name ~seed:1 c with
       | Ok _ -> ()
       | Error m -> fail_setup "bad config %S: %s" c m)
    configs;
  let specs =
    List.concat_map
      (fun p ->
         List.concat_map
           (fun c ->
              List.map
                (fun s ->
                   { Serve.Loadgen.g_prog = p; g_config = c; g_seed = s })
                seeds)
           configs)
      programs
  in
  let conns = if conns > 0 then conns else max 1 jobs in
  let mode =
    match mode_s with
    | "closed" -> Serve.Loadgen.Closed
    | "rate" -> Serve.Loadgen.Rate rate
    | m -> fail_setup "unknown --mode %S (closed|rate)" m
  in
  (* server: connect if given, else fork our own on a temp socket *)
  let sock_path, child =
    match socket with
    | Some p -> (p, None)
    | None ->
      let path = Filename.temp_file "ropserved" ".sock" in
      Sys.remove path;
      let cache_dir =
        if cache_dir = "" then path ^ ".cache" else cache_dir
      in
      let opts =
        { Serve.Server.default_opts with
          Serve.Server.jobs = max 0 jobs;
          shards;
          cache_dir;
          max_queue;
          deadline_ms = (if deadline_ms > 0.0 then Some deadline_ms else None);
          verbose }
      in
      let pid = spawn_server opts path in
      (path, Some pid)
  in
  let cleanup () =
    match child with
    | Some pid -> ignore (stop_server pid sock_path)
    | None -> ()
  in
  let finish rc = cleanup (); rc in
  if not selftest then begin
    let r =
      load_pass ~socket:sock_path ~conns ~mode ~duration ~specs ~rounds "load"
    in
    ignore r;
    finish 0
  end
  else begin
    (* cold: populates the cache; warm: must be served from it *)
    let cold =
      load_pass ~socket:sock_path ~conns ~mode:Serve.Loadgen.Closed ~duration
        ~specs ~rounds "cold"
    in
    let warm =
      load_pass ~socket:sock_path ~conns ~mode:Serve.Loadgen.Closed ~duration
        ~specs ~rounds "warm"
    in
    let arts, serial_wall, serial_rps = serial_pass specs in
    let identity_checked, identity_mismatches =
      identity_pass ~socket:sock_path arts
    in
    let hit_ok = warm.Serve.Loadgen.r_hit_rate >= min_hit_rate in
    if not hit_ok then
      Printf.eprintf "FAIL: warm hit rate %.1f%% below required %.1f%%\n"
        warm.Serve.Loadgen.r_hit_rate min_hit_rate;
    let speedup_warm r = r.Serve.Loadgen.r_rps /. Float.max 1e-9 serial_rps in
    let acceptance_pass =
      identity_mismatches = 0 && hit_ok && speedup_warm warm >= 3.0
    in
    (* regression gate vs. the committed baseline, one re-measure on miss *)
    let gate_ok, warm_final, serial_rps_final, serial_wall_final =
      match baseline with
      | None -> (true, warm, serial_rps, serial_wall)
      | Some file ->
        let committed = read_committed_speedup file in
        let floor = regression_floor *. Float.min committed speedup_cap in
        if speedup_warm warm >= floor then (true, warm, serial_rps, serial_wall)
        else begin
          Printf.printf
            "warm speedup %.2fx below floor %.2fx (committed %.2fx); \
             re-measuring once\n%!"
            (speedup_warm warm) floor committed;
          let warm2 =
            load_pass ~socket:sock_path ~conns ~mode:Serve.Loadgen.Closed
              ~duration ~specs ~rounds "warm2"
          in
          let _, serial_wall2, serial_rps2 = serial_pass specs in
          let sp = warm2.Serve.Loadgen.r_rps /. Float.max 1e-9 serial_rps2 in
          if sp >= floor then (true, warm2, serial_rps2, serial_wall2)
          else begin
            Printf.eprintf
              "FAIL: warm speedup %.2fx still below floor %.2fx\n" sp floor;
            (false, warm2, serial_rps2, serial_wall2)
          end
        end
    in
    let doc =
      bench_json ~quick ~specs_n:(List.length specs)
        ~programs_n:(List.length programs) ~configs_n:(List.length configs)
        ~seeds_n:(List.length seeds) ~jobs ~shards ~conns
        ~serial_rps:serial_rps_final ~serial_wall:serial_wall_final ~cold
        ~warm:warm_final ~identity_checked ~identity_mismatches
        ~pass:(acceptance_pass && gate_ok)
    in
    let oc = open_out json in
    output_string oc doc;
    close_out oc;
    Printf.printf
      "wrote %s (serial %.1f/s, cold %.1f/s, warm %.1f/s = %.1fx serial)\n%!"
      json serial_rps_final cold.Serve.Loadgen.r_rps
      warm_final.Serve.Loadgen.r_rps (speedup_warm warm_final);
    finish (if acceptance_pass && gate_ok then 0 else 1)
  end

let cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Daemon socket to drive.  Absent: fork a private server \
                   on a temp socket and tear it down afterwards.")
  in
  let jobs =
    Arg.(value & opt int 4
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker count for a self-spawned server.")
  in
  let conns =
    Arg.(value & opt int 0
         & info [ "conns" ] ~docv:"N"
             ~doc:"Client connections (concurrency).  0: same as --jobs.")
  in
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"N"
             ~doc:"Cache shards for a self-spawned server.")
  in
  let cache_dir =
    Arg.(value & opt string ""
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Cache dir for a self-spawned server (default: temp).")
  in
  let max_queue =
    Arg.(value & opt int 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Queue bound for a self-spawned server.")
  in
  let deadline_ms =
    Arg.(value & opt float 0.0
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Queue deadline for a self-spawned server (0: none).")
  in
  let mode =
    Arg.(value & opt string "closed"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Drive mode: $(b,closed) (one outstanding request per \
                   connection) or $(b,rate) (fixed offered rate, pipelined).")
  in
  let rate =
    Arg.(value & opt float 50.0
         & info [ "rate" ] ~docv:"RPS" ~doc:"Offered request rate for --mode rate.")
  in
  let duration =
    Arg.(value & opt float 5.0
         & info [ "duration-s" ] ~docv:"S" ~doc:"Duration of a --mode rate pass.")
  in
  let rounds =
    Arg.(value & opt int 1
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Times the whole spec grid is replayed per pass.")
  in
  let programs =
    Arg.(value & opt (some string) None
         & info [ "programs" ] ~docv:"P,P,.."
             ~doc:"Programs to request (default: whole registry; with \
                   --quick: fact,base64).")
  in
  let configs =
    Arg.(value & opt (some string) None
         & info [ "configs" ] ~docv:"C,C,.."
             ~doc:"Configurations (default: full Table I/II matrix; with \
                   --quick: a 3-config slice).")
  in
  let seeds =
    Arg.(value & opt (some string) None
         & info [ "seeds" ] ~docv:"S,S,.." ~doc:"Obfuscation seeds (default 1).")
  in
  let json =
    Arg.(value & opt string "BENCH_serve.json"
         & info [ "json" ] ~docv:"FILE" ~doc:"Where --selftest writes its report.")
  in
  let baseline =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Committed BENCH_serve.json to gate the warm speedup \
                   against (95% floor, capped).")
  in
  let selftest =
    Arg.(value & flag
         & info [ "selftest" ]
             ~doc:"Full acceptance flow: cold + warm passes, serial \
                   baseline, byte-identity check, hit-rate check, JSON \
                   report, optional baseline gate.")
  in
  let min_hit_rate =
    Arg.(value & opt float 90.0
         & info [ "min-hit-rate" ] ~docv:"PCT"
             ~doc:"Required warm-pass cache hit rate for --selftest.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Small grid for CI smoke runs.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Verbose server logs.")
  in
  Cmd.v
    (Cmd.info "ropbench_client"
       ~doc:"Replay the rewrite corpus against ropserved and measure it")
    Term.(const main $ socket $ jobs $ conns $ shards $ cache_dir $ max_queue
          $ deadline_ms $ mode $ rate $ duration $ rounds $ programs $ configs
          $ seeds $ json $ baseline $ selftest $ min_hit_rate $ quick
          $ verbose)

let () = exit (Cmd.eval' cmd)

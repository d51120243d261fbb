(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--must-fail]

   Runs one workload for S seconds of measured passes, checks every output,
   prints a human-readable report and, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones below; with --trace 1 half the time
   runs untraced, half runs with the Obs tracer and metrics enabled plus
   the benchmark's own spans around each layer's public calls, and the
   metrics are the per-layer ones.  --must-fail corrupts one expected value
   so the run must report a failure and exit 1.  Run it through run.sh,
   which builds it and the ropserved daemon first. *)

module M = Measure

let workloads = [ "serve-cold-summary"; "serve-warm-fetch"; "fig5-run"; "attack-dse" ]

let e2e_units =
  [ ("setup_s", "s"); ("req_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms"); ("pass_s", "s"); ("peak_rss_mb", "MB") ]

(* Every per-layer metric: unit, and the end-to-end metric and workload it
   is expected to move.  A workload that does not exercise a layer reports
   it as 0. *)
let layer_table =
  [ ("serve.queue_wait_ms", "ms", "latency_p99_ms on serve-cold-summary");
    ("serve.worker_rewrite_ms", "ms", "req_per_s on serve-cold-summary");
    ("serve.residual_ms", "ms", "req_per_s on serve-warm-fetch");
    ("serve.hit_frac", "frac", "0 on cold, 1 on warm");
    ("serve.shed", "count", "failed operations");
    ("serve.expired", "count", "failed operations");
    ("serve.errors", "count", "failed operations");
    ("protocol.encode_ms", "ms", "req_per_s on serve-warm-fetch");
    ("protocol.decode_ms", "ms", "latency_p50_ms on serve-warm-fetch");
    ("protocol.reply_bytes", "bytes", "req_per_s on serve-warm-fetch");
    ("shardcache.store_ms", "ms", "latency_p50_ms on serve-cold-summary");
    ("shardcache.find_ms", "ms", "req_per_s on serve-warm-fetch");
    ("minic.compile_ms", "ms", "setup_s");
    ("gadget.scan_ms", "ms", "setup_s");
    ("gadget.found", "count", "setup_s");
    ("analysis.cfg_ms", "ms", "req_per_s on serve-cold-summary");
    ("analysis.liveness_ms", "ms", "req_per_s on serve-cold-summary");
    ("ropc.rewrite_ms.p50", "ms", "req_per_s on serve-cold-summary");
    ("ropc.rewrite_ms.max", "ms", "latency_p99_ms on serve-cold-summary");
    ("ropc.pool_build_ms", "ms", "req_per_s on serve-cold-summary");
    ("ropc.lower_ms", "ms", "req_per_s on serve-cold-summary");
    ("ropc.materialize_ms", "ms", "req_per_s on serve-cold-summary");
    ("ropc.funcs_ok_frac", "frac", "exact");
    ("ropc.chain_bytes", "bytes", "exact");
    ("ropc.gadget_uses", "count", "exact");
    ("ropc.unique_gadgets", "count", "exact");
    ("image.serialize_ms", "ms", "req_per_s on serve-cold-summary");
    ("image.bytes", "bytes", "exact; protocol.reply_bytes on serve-warm-fetch");
    ("image.size_x", "x", "exact; protocol.reply_bytes on serve-warm-fetch");
    ("machine.setup_ms", "ms", "pass_s on fig5-run");
    ("machine.exec_ms", "ms", "pass_s on fig5-run");
    ("machine.ns_per_step", "ns", "pass_s on fig5-run");
    ("machine.steps", "count", "exact; pass_s on fig5-run");
    ("machine.steps_x", "x", "exact; pass_s on fig5-run");
    ("machine.dispatches", "count", "exact; pass_s on fig5-run");
    ("machine.blocks_translated", "count", "exact; pass_s on fig5-run");
    ("machine.fused_retires", "count", "exact; pass_s on fig5-run");
    ("machine.dm_hit_frac", "frac", "exact; pass_s on fig5-run");
    ("symex.dse_ms", "ms", "pass_s on attack-dse");
    ("symex.instrs", "count", "exact; pass_s on attack-dse");
    ("symex.states", "count", "exact; pass_s on attack-dse");
    ("symex.secrets_found", "count", "exact; pass_s on attack-dse");
    ("solver.evals", "count", "exact; pass_s on attack-dse");
    ("solver.queries", "count", "exact; pass_s on attack-dse");
    ("solver.memo_hits", "count", "exact; pass_s on attack-dse") ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
     ^ "} --seed N --seconds S --trace 0|1 [--must-fail]");
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | "--must-fail" :: rest -> go (("must-fail", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let args = parse Sys.argv in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = Option.value ~default:1 (int_of_string_opt (get "seed")) in
  let seconds = Option.value ~default:10.0 (float_of_string_opt (get "seconds")) in
  let traced = get "trace" = "1" in
  let must_fail = List.mem_assoc "must-fail" args in
  let top = "_perfbench" in
  (try Unix.mkdir top 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat top (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  let r =
    Fun.protect ~finally:(fun () -> Served.rm_rf dir) @@ fun () ->
    match workload with
    | "serve-cold-summary" -> Served.run ~cold:true ~seed ~seconds ~traced ~must_fail ~dir
    | "serve-warm-fetch" -> Served.run ~cold:false ~seed ~seconds ~traced ~must_fail ~dir
    | "fig5-run" -> Fig5.run ~seed ~seconds ~traced ~must_fail
    | _ -> Attack.run ~seed ~seconds ~traced ~must_fail
  in
  M.stop_tracing ();
  (* Exact counts must also repeat across runs of one build: the first run
     of a workload and seed records them, every later one compares. *)
  let counts_dir = Filename.concat top "counts" in
  (try Unix.mkdir counts_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let counts_file =
    Filename.concat counts_dir
      (Printf.sprintf "%s-%s-%d" (Digest.to_hex (Digest.file Sys.executable_name))
         workload seed)
  in
  let counts =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) r.M.counts)
  in
  (match M.read_file counts_file with
   | Some prev when prev <> counts ->
     M.fail r.M.fs "exact counts differ from an earlier run of this build (%s)"
       counts_file
   | Some _ -> ()
   | None -> Out_channel.with_open_bin counts_file (fun oc -> output_string oc counts));
  let p fmt = Printf.printf fmt in
  p "perfbench %s seed=%d seconds=%g trace=%d%s\n" workload seed seconds
    (if traced then 1 else 0) (if must_fail then " must-fail" else "");
  List.iter (fun l -> p "  %s\n" l) r.M.lines;
  p "exact counts (repeated on every pass and across runs):\n";
  List.iter (fun (k, v) -> p "  %-26s %d\n" k v) r.M.counts;
  let print_e2e title (e : M.e2e) =
    p "%s\n" title;
    List.iter
      (fun (name, v, n) ->
         p "  %-16s %14.4f %-4s  n=%d%s\n" name v (List.assoc name e2e_units) n
           (if name = "latency_p99_ms" then
              let kinds = M.kind_latencies e in
              Printf.sprintf " (%d kinds, %d beyond p99)" (List.length kinds)
                (M.beyond kinds 99.0)
            else ""))
      (M.e2e_metrics e);
    p "  pass walls (s): %s\n"
      (String.concat " " (List.map (fun (w, _) -> Printf.sprintf "%.3f" w) e.M.passes))
  in
  print_e2e "end-to-end (untraced)" r.M.e2e;
  p "  times above are at the reference speed: measured x %.4f (reference work: \
     fastest quarter %.4f ms, median %.4f ms, n=%d; nominal %.1f ms)\n"
    (M.host_scale ()) (M.fastest_quarter !M.reference_ms) (M.median !M.reference_ms)
    (List.length !M.reference_ms) M.reference_nominal_ms;
  let failed = r.M.fs.M.n_failed in
  p "  %-16s %14.4f %-4s  (%d failed of %d attempted)\n" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 r.M.attempted)) "frac" failed
    r.M.attempted;
  List.iter (fun m -> p "  FAILED: %s\n" m) (List.rev r.M.fs.M.msgs);
  (match r.M.traced_e2e with
   | None -> ()
   | Some t ->
     print_e2e "end-to-end (traced)" t;
     p "tracing overhead (traced - untraced):\n";
     List.iter2
       (fun (name, u, _) (_, tv, _) ->
          p "  %-16s %+14.4f %s\n" name (tv -. u) (List.assoc name e2e_units))
       (M.e2e_metrics r.M.e2e) (M.e2e_metrics t);
     p "per-layer (expected to move ->):\n";
     List.iter
       (fun (name, unit, moves) ->
          match List.assoc_opt name r.M.layers with
          | Some v -> p "  %-26s %16.4f %-5s -> %s\n" name v unit moves
          | None -> p "  %-26s %16s %-5s (layer not on this workload's path)\n" name "0" unit)
       layer_table;
     let path =
       Filename.concat top (Printf.sprintf "trace-%s-%d.json" workload seed)
     in
     let oc = open_out_bin path in
     output_string oc (Obs.Trace.to_json ~metrics:(Obs.Metrics.snapshot ()) ());
     close_out oc;
     p "trace: %d spans (%d dropped) -> %s\n" (List.length (Obs.Trace.spans ()))
       (Obs.Trace.dropped ()) path);
  let metrics =
    if traced then
      List.map
        (fun (name, unit, _) ->
           (name, Option.value ~default:0.0 (List.assoc_opt name r.M.layers), unit))
        layer_table
    else
      List.map (fun (name, v, _) -> (name, v, List.assoc name e2e_units))
        (M.e2e_metrics r.M.e2e)
  in
  let correct = failed = 0 in
  p "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.M.attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
             Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics));
  exit (if correct then 0 else 1)

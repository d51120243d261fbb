(* Run manifests: one JSON document per CLI invocation, accumulating one
   record per pool run (an `experiments all` invocation runs several pools,
   one per table/figure).  The manifest is the observability artifact the
   pool exports: per-job timing and attempt counts, cache hit/miss totals,
   worker utilization, and whether the run was interrupted — enough to see
   at a glance which cells were recomputed, which came from the cache, and
   where the wall-clock went. *)

type entry = {
  e_key : string;
  e_status : string;           (* ok | failed | timed-out *)
  e_time_s : float;            (* wall clock *)
  e_utime_s : float;           (* user CPU (worker-side Unix.times delta) *)
  e_stime_s : float;           (* system CPU *)
  e_attempts : int;            (* dispatches consumed; 0 for cache hits *)
  e_cached : bool;
}

type run = {
  r_label : string;
  r_jobs : int;
  r_total : int;
  r_ok : int;
  r_failed : int;
  r_timed_out : int;
  r_cache_hits : int;
  r_cache_misses : int;
  r_wall_s : float;
  r_cpu_s : float;             (* summed user+system CPU of resolved jobs:
                                  ~0 for an all-cache-hit run, ~wall*workers
                                  for a full recompute *)
  r_utilization : float;       (* worker busy time / (workers * wall) *)
  r_interrupted : bool;
  r_entries : entry list;
}

type t = { mutable runs : run list }

let create () = { runs = [] }

let add t r = t.runs <- t.runs @ [ r ]

(* --- JSON emission (no external dependency) ------------------------------- *)

let entry_json b e =
  Printf.bprintf b
    "{\"key\":\"%s\",\"status\":\"%s\",\"time_s\":%.6f,\"utime_s\":%.6f,\
     \"stime_s\":%.6f,\"attempts\":%d,\"cached\":%b}"
    (Obs.Json.escape e.e_key) (Obs.Json.escape e.e_status) e.e_time_s
    e.e_utime_s e.e_stime_s e.e_attempts e.e_cached

let run_json b r =
  Printf.bprintf b
    "{\"label\":\"%s\",\"jobs\":%d,\"total\":%d,\"ok\":%d,\"failed\":%d,\
     \"timed_out\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"wall_s\":%.6f,\
     \"cpu_s\":%.6f,\"utilization\":%.4f,\"interrupted\":%b,\"entries\":["
    (Obs.Json.escape r.r_label) r.r_jobs r.r_total r.r_ok r.r_failed
    r.r_timed_out r.r_cache_hits r.r_cache_misses r.r_wall_s r.r_cpu_s
    r.r_utilization r.r_interrupted;
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char b ',';
       entry_json b e)
    r.r_entries;
  Buffer.add_string b "]}"

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"runs\":[";
  List.iteri
    (fun i r ->
       if i > 0 then Buffer.add_char b ',';
       run_json b r)
    t.runs;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Atomic write (temp + rename), creating parent directories as needed. *)
let write t path =
  Cache.mkdir_p (Filename.dirname path);
  let dir =
    let d = Filename.dirname path in
    if d = "" then Filename.current_dir_name else d
  in
  let tmp = Filename.temp_file ~temp_dir:dir "manifest" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (to_json t);
  close_out oc;
  Sys.rename tmp path

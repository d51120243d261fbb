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

(* --- JSON emission ---------------------------------------------------------- *)

module J = Obs.Json

(* Times print to the microsecond, utilization to four places. *)
let entry_json e =
  J.Obj
    [ ("key", J.Str e.e_key); ("status", J.Str e.e_status);
      ("time_s", J.decimals 6 e.e_time_s); ("utime_s", J.decimals 6 e.e_utime_s);
      ("stime_s", J.decimals 6 e.e_stime_s); ("attempts", J.int e.e_attempts);
      ("cached", J.Bool e.e_cached) ]

let run_json r =
  J.Obj
    [ ("label", J.Str r.r_label); ("jobs", J.int r.r_jobs);
      ("total", J.int r.r_total); ("ok", J.int r.r_ok);
      ("failed", J.int r.r_failed); ("timed_out", J.int r.r_timed_out);
      ("cache_hits", J.int r.r_cache_hits);
      ("cache_misses", J.int r.r_cache_misses);
      ("wall_s", J.decimals 6 r.r_wall_s); ("cpu_s", J.decimals 6 r.r_cpu_s);
      ("utilization", J.decimals 4 r.r_utilization);
      ("interrupted", J.Bool r.r_interrupted);
      ("entries", J.Arr (List.map entry_json r.r_entries)) ]

let to_json t =
  J.to_string (J.Obj [ ("runs", J.Arr (List.map run_json t.runs)) ]) ^ "\n"

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

(* Measurement plumbing shared by the workloads: order statistics, memory
   high-water marks, self time from trace spans, exact-count ledgers, and
   the metric records a workload hands back to main. *)

let now = Unix.gettimeofday

(* Wall seconds of [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- order statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

(* Harrell-Davis-style percentile: every order statistic weighted by the
   Beta((n+1)p, (n+1)(1-p)) density at its rank (midpoint rule, weights
   normalised).  A request mix of a few dozen deterministic kinds puts a
   plain order statistic in the gap between two kinds, where it jumps from
   run to run; the weighted average moves smoothly. *)
let smooth_percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 1 then percentile xs p
  else begin
    let q = p /. 100.0 and nf = float_of_int n in
    let al = q *. (nf +. 1.0) and be = (1.0 -. q) *. (nf +. 1.0) in
    let lw =
      Array.init n (fun i ->
          let x = (float_of_int i +. 0.5) /. nf in
          ((al -. 1.0) *. log x) +. ((be -. 1.0) *. log (1.0 -. x)))
    in
    let top = Array.fold_left Float.max neg_infinity lw in
    let w = Array.map (fun l -> exp (l -. top)) lw in
    let sum = ref 0.0 and acc = ref 0.0 in
    Array.iteri (fun i wi -> sum := !sum +. wi; acc := !acc +. (wi *. a.(i))) w;
    !acc /. !sum
  end

(* Samples strictly above the [p]th percentile: a tail estimate needs ten. *)
let beyond xs p =
  let v = smooth_percentile xs p in
  List.length (List.filter (fun x -> x > v) xs)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (mean (List.map log xs))

(* The mean of the fastest quarter of [xs] (at least one sample). *)
let fastest_quarter xs =
  let a = sorted xs in
  mean (Array.to_list (Array.sub a 0 (max 1 (Array.length a / 4))))

(* --- memory ------------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        Some (In_channel.input_all ic))

(* Peak resident set of one process in MiB (VmHWM), 0 if unreadable. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           (match String.split_on_char ' ' (String.trim v) with
            | kb :: _ -> Option.map (fun k -> k /. 1024.0) (float_of_string_opt kb)
            | [] -> None)
         | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:0.0

(* Direct children of [pid], found through /proc/N/stat's ppid field. *)
let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
      match int_of_string_opt d with
      | None -> None
      | Some c ->
        (match read_file (Printf.sprintf "/proc/%d/stat" c) with
         | None -> None
         | Some s ->
           (* "pid (comm) state ppid ...": comm may hold spaces *)
           let close = String.rindex s ')' in
           (match
              String.split_on_char ' '
                (String.sub s (close + 2) (String.length s - close - 2))
            with
            | _state :: ppid :: _ when int_of_string_opt ppid = Some pid -> Some c
            | _ -> None)))

(* --- trace spans -------------------------------------------------------- *)

(* Per span name: calls, total duration and self time (duration minus the
   part covered by directly nested spans), all in milliseconds.  The tracer
   is single-threaded, so spans nest properly and containment is parenthood. *)
type span_sum = { calls : int; total_ms : float; self_ms : float }

let span_sums () : (string, span_sum) Hashtbl.t =
  let ss =
    Obs.Trace.spans ()
    |> List.filter (fun s -> not s.Obs.Trace.s_instant)
    |> List.stable_sort (fun a b ->
        match compare a.Obs.Trace.s_ts_us b.Obs.Trace.s_ts_us with
        | 0 -> compare b.Obs.Trace.s_dur_us a.Obs.Trace.s_dur_us
        | c -> c)
  in
  (* 1 ns of slack absorbs float rounding of the microsecond timestamps *)
  let contains (p : Obs.Trace.span) (c : Obs.Trace.span) =
    c.s_ts_us >= p.s_ts_us -. 1e-3
    && c.s_ts_us +. c.s_dur_us <= p.s_ts_us +. p.s_dur_us +. 1e-3
  in
  let child = Hashtbl.create 256 in
  let stack = ref [] in
  List.iteri
    (fun i s ->
       let rec pop () =
         match !stack with
         | (_, top) :: rest when not (contains top s) -> stack := rest; pop ()
         | _ -> ()
       in
       pop ();
       (match !stack with
        | (j, _) :: _ ->
          Hashtbl.replace child j
            (Option.value ~default:0.0 (Hashtbl.find_opt child j)
             +. s.Obs.Trace.s_dur_us)
        | [] -> ());
       stack := (i, s) :: !stack)
    ss;
  let sums = Hashtbl.create 32 in
  List.iteri
    (fun i s ->
       let dur = s.Obs.Trace.s_dur_us /. 1000.0 in
       let self =
         dur -. (Option.value ~default:0.0 (Hashtbl.find_opt child i) /. 1000.0)
       in
       let cur =
         Option.value ~default:{ calls = 0; total_ms = 0.0; self_ms = 0.0 }
           (Hashtbl.find_opt sums s.Obs.Trace.s_name)
       in
       Hashtbl.replace sums s.Obs.Trace.s_name
         { calls = cur.calls + 1; total_ms = cur.total_ms +. dur;
           self_ms = cur.self_ms +. self })
    ss;
  sums

let span_get sums name =
  Option.value ~default:{ calls = 0; total_ms = 0.0; self_ms = 0.0 }
    (Hashtbl.find_opt sums name)

let span_durations_ms name =
  List.filter_map
    (fun s ->
       if s.Obs.Trace.s_name = name && not s.Obs.Trace.s_instant then
         Some (s.Obs.Trace.s_dur_us /. 1000.0)
       else None)
    (Obs.Trace.spans ())

(* The rewrite pipeline's layers, common to every workload that rewrites:
   per-call self times of the benchmark's spans (minic.compile around the
   compiler, gadget.prepare around Rewriter.prepare, ropc.rewrite around
   Rewriter.rewrite_with, image.serialize) and of the in-tree rewrite.*
   spans nested inside them. *)
type rewrites = {
  mutable progs : int;
  mutable found : int;            (* gadgets found by the prepare scans *)
  mutable images : int;           (* Image.serialize calls *)
  mutable funcs : int;
  mutable funcs_ok : int;
  mutable chain : int;
  mutable uses : int;
  mutable uniq : int;
}

let rewrites () =
  { progs = 0; found = 0; images = 0; funcs = 0; funcs_ok = 0; chain = 0;
    uses = 0; uniq = 0 }

let compile acc f =
  acc.progs <- acc.progs + 1;
  Obs.Trace.with_span "minic.compile" f

let prepare acc img ~functions =
  let ctx =
    Obs.Trace.with_span "gadget.prepare" (fun () ->
        Ropc.Rewriter.prepare img ~functions)
  in
  acc.found <- acc.found + List.length ctx.Ropc.Rewriter.ctx_found;
  ctx

let rewrite acc ctx ~config =
  let r =
    Obs.Trace.with_span "ropc.rewrite" (fun () ->
        Ropc.Rewriter.rewrite_with ctx ~config)
  in
  List.iter
    (fun (_, fr) ->
       acc.funcs <- acc.funcs + 1;
       match fr with
       | Ok st ->
         acc.funcs_ok <- acc.funcs_ok + 1;
         acc.chain <- acc.chain + st.Ropc.Rewriter.fs_chain_bytes
       | Error _ -> ())
    r.Ropc.Rewriter.funcs;
  acc.uses <- acc.uses + r.Ropc.Rewriter.total_gadget_uses;
  acc.uniq <- acc.uniq + r.Ropc.Rewriter.unique_gadgets;
  r

let serialize acc img =
  acc.images <- acc.images + 1;
  Obs.Trace.with_span "image.serialize" (fun () -> Image.serialize img)

let rewrite_layers sums acc =
  let per name n =
    (span_get sums name).self_ms /. float_of_int (max 1 n)
  in
  let rw = span_durations_ms "ropc.rewrite" in
  let n_rw = List.length rw in
  [ ("minic.compile_ms", per "minic.compile" acc.progs);
    ("gadget.scan_ms", per "rewrite.gadget_scan" acc.progs);
    ("gadget.found", float_of_int acc.found);
    ("analysis.cfg_ms", per "rewrite.cfg" n_rw);
    ("analysis.liveness_ms", per "rewrite.liveness" n_rw);
    ("ropc.rewrite_ms.p50", median rw);
    ("ropc.rewrite_ms.max", List.fold_left Float.max 0.0 rw);
    ("ropc.pool_build_ms", per "rewrite.pool_build" n_rw);
    ("ropc.lower_ms", per "rewrite.lower" n_rw);
    ("ropc.materialize_ms", per "rewrite.materialize" n_rw);
    ("ropc.funcs_ok_frac", float_of_int acc.funcs_ok /. float_of_int (max 1 acc.funcs));
    ("ropc.chain_bytes", float_of_int acc.chain);
    ("ropc.gadget_uses", float_of_int acc.uses);
    ("ropc.unique_gadgets", float_of_int acc.uniq);
    ("image.serialize_ms", per "image.serialize" acc.images) ]

(* Counter value from the live metrics registry, 0 when never recorded. *)
let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Counter n) | Some (Obs.Metrics.Gauge n) -> n
  | Some (Obs.Metrics.Hist h) -> h.count
  | None -> 0

let start_tracing () =
  Obs.Trace.set_enabled ~capacity:(1 lsl 18) true;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true

let stop_tracing () =
  Obs.Trace.set_enabled false;
  Obs.Metrics.set_enabled false

let span = Obs.Trace.with_span

(* --- failures and exact counts ------------------------------------------ *)

(* Every failed operation or check lands here; the first few messages are
   printed, all of them count. *)
type failures = { mutable n_failed : int; mutable msgs : string list }

let failures () = { n_failed = 0; msgs = [] }

let fail fs fmt =
  Printf.ksprintf
    (fun m ->
       fs.n_failed <- fs.n_failed + 1;
       if List.length fs.msgs < 8 then fs.msgs <- m :: fs.msgs)
    fmt

(* Exact counts must repeat identically on every pass of a run: the first
   pass records them and each later pass is compared against it. *)
type ledger = { mutable first : (string * int) list option }

let ledger () = { first = None }

let check_counts fs ld (counts : (string * int) list) =
  match ld.first with
  | None -> ld.first <- Some counts
  | Some ref_counts ->
    List.iter
      (fun (k, v) ->
         match List.assoc_opt k ref_counts with
         | Some v0 when v0 = v -> ()
         | Some v0 -> fail fs "exact count %s changed between passes: %d then %d" k v0 v
         | None -> fail fs "exact count %s missing from the first pass" k)
      counts

let counts ld = Option.value ~default:[] ld.first

(* --- host speed ---------------------------------------------------------- *)

(* A fixed piece of work that shares no code with the program under test:
   hex-encode a pseudo-random 16 KiB string, one sprintf per byte, and hash
   the result.  Its fastest quarter over the run tracks the shared host's
   unloaded speed. *)
let reference_work () =
  let n = 16384 in
  let x = ref 0x2545F491 in
  let b = Buffer.create (2 * n) in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    Buffer.add_string b (Printf.sprintf "%02x" ((!x lsr 16) land 0xFF))
  done;
  Hashtbl.hash (Buffer.contents b)

(* Reference times (ms) of the whole run, eight before every pass. *)
let reference_ms = ref []

(* The reference work's time on the host this was sized on, in a calm
   period, when it took 1.85-2.13 ms. *)
let reference_nominal_ms = 2.0

(* Host speed drifts by 15-50% over tens of minutes, longer than a run, and
   the fastest quarter within a run cannot undo that.  Times are therefore
   reported at the reference speed: scaled by the reference work's nominal
   time over its fastest quarter in this run.  The reference shares no code
   with the program under test, so a change to the program moves only the
   scaled time, never the scale. *)
let host_scale () =
  match !reference_ms with
  | [] -> 1.0
  | xs -> reference_nominal_ms /. fastest_quarter xs

let sample_reference () =
  for _ = 1 to 8 do
    let _, dt = timed (fun () -> Sys.opaque_identity (reference_work ())) in
    reference_ms := (dt *. 1000.0) :: !reference_ms
  done

(* --- what a workload reports -------------------------------------------- *)

(* Timings of one run from which the end-to-end metrics are derived. *)
type e2e = {
  setups : float list;            (* seconds per set-up *)
  passes : (float * int) list;    (* pass wall seconds, operations completed *)
  latencies_ms : (string * float) list;  (* request kind, ms: every operation *)
  conns : int;                    (* requests in flight at once *)
  rss_mb : float;
}

type report = {
  attempted : int;
  fs : failures;
  e2e : e2e;                      (* untraced passes *)
  traced_e2e : e2e option;        (* traced passes (--trace 1) *)
  counts : (string * int) list;   (* exact counts of one pass *)
  layers : (string * float) list; (* per-layer metrics (--trace 1) *)
  lines : string list;            (* human-readable detail *)
}

(* One latency per request kind: the fastest quarter of its samples over
   the run's passes.  The shared host this was sized on slows a pure ALU
   loop by up to 70% for a second or more at a time, in CPU time as much as
   in wall time, and the share of slow time differs from run to run by
   tens of percent.  Run medians and totals carry that share; the fastest
   quarter of each kind's short samples measures the program at the host's
   unloaded speed and repeats within a few percent. *)
let kind_latencies (e : e2e) =
  let by_kind = Hashtbl.create 256 in
  List.iter
    (fun (k, ms) ->
       Hashtbl.replace by_kind k
         (ms :: Option.value ~default:[] (Hashtbl.find_opt by_kind k)))
    e.latencies_ms;
  Hashtbl.fold (fun _ xs acc -> fastest_quarter xs :: acc) by_kind []

(* Every request kind recurs once per pass, so a pass at the unloaded speed
   takes the sum of the kinds' latencies over the requests in flight at
   once; throughput is the kinds per such pass.  Latency quantiles are
   taken over the kinds.  Every time is scaled to the reference speed. *)
let e2e_metrics (e : e2e) =
  let scale = host_scale () in
  let kinds = List.map (fun ms -> ms *. scale) (kind_latencies e) in
  let n_kinds = List.length kinds in
  let pass_s =
    List.fold_left ( +. ) 0.0 kinds /. 1000.0 /. float_of_int (max 1 e.conns)
  in
  let n_lat = List.length e.latencies_ms in
  [ ("setup_s", scale *. median e.setups, List.length e.setups);
    ("req_per_s", float_of_int n_kinds /. pass_s, n_lat);
    ("latency_p50_ms", smooth_percentile kinds 50.0, n_lat);
    ("latency_p99_ms", smooth_percentile kinds 99.0, n_lat);
    ("pass_s", pass_s, n_lat);
    ("peak_rss_mb", e.rss_mb, 1) ]

(* The order of pass [i]'s operations under the workload seed. *)
let shuffle ~seed i xs =
  Util.Rng.shuffle (Util.Rng.of_key ~seed (Printf.sprintf "order/%d" i)) xs

(* Run passes until [seconds] of measured time have elapsed, and at least
   three.  [pass i] returns its own wall time and op count. *)
let repeat ~seconds (pass : int -> float * int) =
  let spent = ref 0.0 and acc = ref [] and i = ref 0 in
  while !spent < seconds || !i < 3 do
    sample_reference ();
    let w, n = pass !i in
    spent := !spent +. w;
    acc := (w, n) :: !acc;
    incr i
  done;
  List.rev !acc

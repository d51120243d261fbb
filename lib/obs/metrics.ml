(* Typed metrics behind a process-global registry.

   Instrumented code registers a handle once (at module init, a cold path)
   and then records through it:

     let translations = Obs.Metrics.counter "exec.blocks_translated"
     ...
     Obs.Metrics.add translations 1

   The cost contract is the whole point of the design:

   - disabled (the default): [add]/[set]/[observe] are a load of one global
     bool and a conditional branch.  No allocation, no hashing, no store.
     test_obs pins this down with a [Gc.minor_words] check, and the @bench
     alias gates the fast engine's steps/sec against the committed baseline
     with metrics compiled in but disabled.
   - enabled: a handle update is one or two unboxed mutations on a record
     found at registration time; the name table is never touched again.

   Snapshots are plain immutable data — `(string * value) list`, sorted by
   name — so they marshal across the lib/jobs pipe channel as-is.  A forked
   worker inherits the parent's registry through the fork; it reports the
   per-job [diff] of two snapshots and the parent [absorb]s it, so a
   `--jobs N` run accumulates exactly the totals a serial run would (all
   merge operations are commutative and associative: counters and histogram
   buckets add, gauges take the max). *)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;             (* max_int when empty *)
  mutable h_max : int;             (* min_int when empty *)
  h_buckets : int array;           (* log2 buckets: index = bit width of v *)
}

type metric =
  | M_counter of int ref
  | M_gauge of int ref
  | M_hist of hist

(* Immutable mirror of [metric] for snapshots: marshal-safe plain data. *)
type value =
  | Counter of int
  | Gauge of int
  | Hist of { count : int; sum : int; min_v : int; max_v : int;
              buckets : int array }

type snapshot = (string * value) list

let n_buckets = 64                  (* one per possible bit width of an int *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* name -> metric; also an insertion list so registration order is cheap to
   recover, though snapshots sort by name for determinism anyway. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let register name m =
  match Hashtbl.find_opt registry name with
  | Some existing ->
    (* idempotent re-registration keeps handles stable across modules that
       name the same metric; a kind clash is a programming error *)
    (match existing, m with
     | M_counter _, M_counter _ | M_gauge _, M_gauge _ | M_hist _, M_hist _ ->
       existing
     | _ -> invalid_arg (Printf.sprintf "Obs.Metrics: %s re-registered with a different kind" name))
  | None -> Hashtbl.replace registry name m; m

let counter name =
  match register name (M_counter (ref 0)) with
  | M_counter r -> r
  | _ -> assert false

let gauge name =
  match register name (M_gauge (ref 0)) with
  | M_gauge r -> r
  | _ -> assert false

let histogram name =
  match register name
          (M_hist { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int;
                    h_buckets = Array.make n_buckets 0 })
  with
  | M_hist h -> h
  | _ -> assert false

(* --- record operations (the only calls that may sit near hot code) ------- *)

let add (c : int ref) n = if !enabled_flag then c := !c + n
let incr (c : int ref) = if !enabled_flag then c := !c + 1
let set (g : int ref) v = if !enabled_flag then g := v
let set_max (g : int ref) v = if !enabled_flag && v > !g then g := v

(* log2 bucket = bit width of v; 0 and negatives land in bucket 0 *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do Stdlib.incr b; v := !v lsr 1 done;
    min !b (n_buckets - 1)
  end

let observe (h : hist) v =
  if !enabled_flag then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1
  end

(* Cold-path convenience: record through the name table.  For publish
   functions that run once per pipeline stage, not per retired event. *)
let count name n = add (counter name) n
let observe_named name v = observe (histogram name) v

(* --- snapshots ------------------------------------------------------------ *)

let freeze = function
  | M_counter r -> Counter !r
  | M_gauge r -> Gauge !r
  | M_hist h ->
    Hist { count = h.h_count; sum = h.h_sum; min_v = h.h_min; max_v = h.h_max;
           buckets = Array.copy h.h_buckets }

let is_zero = function
  | Counter 0 | Gauge 0 -> true
  | Hist h -> h.count = 0
  | _ -> false

(* Sorted by name; zero-valued entries dropped so a never-recorded handle
   does not pollute dumps or pipe traffic. *)
let snapshot () =
  Hashtbl.fold (fun k m acc -> (k, freeze m) :: acc) registry []
  |> List.filter (fun (_, v) -> not (is_zero v))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [diff base cur]: what happened between two snapshots of the same
   registry.  Counters and histograms subtract; a gauge reports its current
   value.  Zero deltas are dropped, so two identical snapshots diff to []. *)
let diff (base : snapshot) (cur : snapshot) : snapshot =
  let base_tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace base_tbl k v) base;
  cur
  |> List.filter_map (fun (k, v) ->
      let v' =
        match v, Hashtbl.find_opt base_tbl k with
        | v, None -> v
        | Counter c, Some (Counter c0) -> Counter (c - c0)
        | Gauge g, Some (Gauge _) -> Gauge g
        | Hist h, Some (Hist h0) ->
          Hist { count = h.count - h0.count; sum = h.sum - h0.sum;
                 min_v = h.min_v; max_v = h.max_v;
                 buckets = Array.mapi (fun i b -> b - h0.buckets.(i)) h.buckets }
        | v, Some _ -> v
      in
      if is_zero v' then None else Some (k, v'))

(* Merge a snapshot (a worker's per-job delta) into the live registry.
   Counter/hist merges are additive, gauges take the max: every operation is
   commutative and associative, so the result is independent of worker
   scheduling and equals the serial run's totals. *)
let absorb (snap : snapshot) =
  List.iter
    (fun (k, v) ->
       match v with
       | Counter n -> add (counter k) n
       | Gauge g -> set_max (gauge k) g
       | Hist h ->
         let dst = histogram k in
         dst.h_count <- dst.h_count + h.count;
         dst.h_sum <- dst.h_sum + h.sum;
         if h.min_v < dst.h_min then dst.h_min <- h.min_v;
         if h.max_v > dst.h_max then dst.h_max <- h.max_v;
         Array.iteri (fun i b -> dst.h_buckets.(i) <- dst.h_buckets.(i) + b)
           h.buckets)
    snap

let reset () =
  Hashtbl.iter
    (fun _ m ->
       match m with
       | M_counter r | M_gauge r -> r := 0
       | M_hist h ->
         h.h_count <- 0; h.h_sum <- 0; h.h_min <- max_int; h.h_max <- min_int;
         Array.fill h.h_buckets 0 n_buckets 0)
    registry

(* --- latency quantiles ---------------------------------------------------- *)

(* The [p]th percentile (0..100) of an ascending [sorted] sample: the
   element at rank p% of the way from the first to the last, rounded to the
   nearest rank.  0.0 for an empty sample. *)
let percentile (sorted : float array) p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(min (n - 1)
              (int_of_float ((p /. 100.0 *. float_of_int (n - 1)) +. 0.5)))

(* --- rendering ------------------------------------------------------------ *)

let pp_value b = function
  | Counter n -> Printf.bprintf b "%d" n
  | Gauge n -> Printf.bprintf b "%d (gauge)" n
  | Hist h ->
    Printf.bprintf b "count %d  sum %d  min %d  max %d  avg %.1f"
      h.count h.sum h.min_v h.max_v
      (if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count)

let render (snap : snapshot) =
  let b = Buffer.create 1024 in
  let w = List.fold_left (fun w (k, _) -> max w (String.length k)) 0 snap in
  List.iter
    (fun (k, v) ->
       Printf.bprintf b "  %-*s  " w k;
       pp_value b v;
       Buffer.add_char b '\n')
    snap;
  Buffer.contents b

(* Bounded ring-buffer span tracer with chrome://tracing export.

   [with_span name f] times the evaluation of [f] and files a completed
   span; spans nest naturally because each call records its own start and
   duration (chrome://tracing reconstructs the stack from containment, so
   no parent ids are needed for a single-threaded trace).  [instant] files
   a zero-duration marker.  The buffer is a fixed-capacity ring: tracing a
   long run costs bounded memory and the export keeps the most recent
   [capacity] spans, oldest first.

   Cost contract: when disabled (the default), [with_span] is one bool load
   and a tail call of the thunk, and [instant] is a bool load — no time
   syscall, no ring write, no allocation beyond what the caller's closure
   itself captures.  Hot loops should not carry spans at all (see
   DESIGN.md); the intended grain is a pipeline phase or an analysis run,
   tens to thousands of spans per process.

   The export is the chrome://tracing / Perfetto JSON array format:
   "X" (complete) events for spans, "i" for instants, and "C" (counter)
   events appended from a metrics snapshot so one file carries both the
   flame view and the final counter values. *)

type span = {
  s_name : string;
  s_ts_us : float;                  (* start, microseconds since enable *)
  s_dur_us : float;                 (* 0 for instants *)
  s_instant : bool;
  s_args : (string * string) list;
}

let default_capacity = 8192

let enabled_flag = ref false
let epoch = ref 0.0
let ring : span array ref = ref [||]
let total = ref 0                   (* spans ever filed; ring slot = total mod cap *)
let dropped () = max 0 (!total - Array.length !ring)

let enabled () = !enabled_flag

let empty_span =
  { s_name = ""; s_ts_us = 0.0; s_dur_us = 0.0; s_instant = false; s_args = [] }

(* Enabling (re)arms the ring and restarts the clock; disabling keeps the
   collected spans so a CLI can stop tracing and then export. *)
let set_enabled ?(capacity = default_capacity) on =
  if on then begin
    if capacity <= 0 then invalid_arg "Obs.Trace: capacity must be positive";
    ring := Array.make capacity empty_span;
    total := 0;
    epoch := Unix.gettimeofday ()
  end;
  enabled_flag := on

let push s =
  let r = !ring in
  let cap = Array.length r in
  if cap > 0 then begin
    r.(!total mod cap) <- s;
    incr total
  end

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let instant ?(args = []) name =
  if !enabled_flag then
    push { s_name = name; s_ts_us = now_us (); s_dur_us = 0.0;
           s_instant = true; s_args = args }

let with_span ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
          push { s_name = name; s_ts_us = t0; s_dur_us = now_us () -. t0;
                 s_instant = false; s_args = args })
      f
  end

(* Collected spans, oldest first (at most [capacity] of them). *)
let spans () =
  let r = !ring in
  let cap = Array.length r in
  let kept = min !total cap in
  List.init kept (fun i -> r.((!total - kept + i) mod cap))

(* --- chrome://tracing JSON export ---------------------------------------- *)

(* Timestamps and durations print to the nanosecond. *)
let us x = Json.decimals 3 x

let span_json s =
  let phase =
    if s.s_instant then
      [ ("ph", Json.Str "i"); ("s", Json.Str "t"); ("ts", us s.s_ts_us) ]
    else [ ("ph", Json.Str "X"); ("ts", us s.s_ts_us); ("dur", us s.s_dur_us) ]
  in
  let args = List.map (fun (k, v) -> (k, Json.Str v)) s.s_args in
  Json.Obj
    ([ ("name", Json.Str s.s_name); ("cat", Json.Str "raindrop") ]
     @ phase
     @ [ ("pid", Json.int 1); ("tid", Json.int 1) ]
     @ (if args = [] then [] else [ ("args", Json.Obj args) ]))

(* Counter events from a metrics snapshot, stamped at the trace end so the
   exported file carries the final counter values alongside the flame
   view.  Histograms expand to .count/.sum; gauges and counters emit one
   event each. *)
let counter_json ts (k, (v : Metrics.value)) =
  let one name n =
    Json.Obj
      [ ("name", Json.Str name); ("cat", Json.Str "raindrop");
        ("ph", Json.Str "C"); ("ts", us ts); ("pid", Json.int 1);
        ("args", Json.Obj [ ("value", Json.int n) ]) ]
  in
  match v with
  | Metrics.Counter n | Metrics.Gauge n -> [ one k n ]
  | Metrics.Hist h -> [ one (k ^ ".count") h.count; one (k ^ ".sum") h.sum ]

(* Events are printed one at a time: the whole trace is never a tree. *)
let to_json ?(metrics : Metrics.snapshot = []) () =
  let b = Buffer.create 4096 in
  let ss = spans () in
  let end_ts =
    List.fold_left (fun acc s -> Float.max acc (s.s_ts_us +. s.s_dur_us)) 0.0 ss
  in
  let process =
    Json.Obj
      [ ("name", Json.Str "process_name"); ("ph", Json.Str "M");
        ("pid", Json.int 1); ("tid", Json.int 1);
        ("args", Json.Obj [ ("name", Json.Str "raindrop") ]) ]
  in
  Json.stream_obj b
    [ ("displayTimeUnit", Json.Str "ms") ]
    "traceEvents"
    (Seq.append
       (Seq.cons process (Seq.map span_json (List.to_seq ss)))
       (Seq.flat_map
          (fun m -> List.to_seq (counter_json end_ts m))
          (List.to_seq metrics)));
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- schema validation ---------------------------------------------------- *)

(* Validate a chrome://tracing JSON document: the shape chrome accepts and
   the shape [to_json] promises.  Returns the number of events on success.
   Used by test_obs (round-trip) and by the CLIs' --trace path, which
   refuses to write a file that fails its own schema. *)
let validate_json (doc : string) : (int, string) result =
  match Json.parse doc with
  | Error e -> Error e
  | Ok root ->
    (match Json.member "traceEvents" root with
     | None -> Error "missing traceEvents"
     | Some evs ->
       (match Json.as_list evs with
        | None -> Error "traceEvents is not an array"
        | Some evs ->
          let check i ev =
            let str k = Option.bind (Json.member k ev) Json.as_string in
            let num k = Option.bind (Json.member k ev) Json.as_float in
            let fail msg = Error (Printf.sprintf "event %d: %s" i msg) in
            match str "name", str "ph" with
            | None, _ -> fail "missing name"
            | _, None -> fail "missing ph"
            | Some _, Some ph ->
              (match ph with
               | "M" -> Ok ()
               | "X" ->
                 (match num "ts", num "dur" with
                  | Some ts, Some dur ->
                    if ts < 0.0 then fail "negative ts"
                    else if dur < 0.0 then fail "negative dur"
                    else if num "pid" = None || num "tid" = None then
                      fail "missing pid/tid"
                    else Ok ()
                  | _ -> fail "X event missing ts/dur")
               | "i" ->
                 if num "ts" = None then fail "i event missing ts" else Ok ()
               | "C" ->
                 (match num "ts", Json.path [ "args"; "value" ] ev with
                  | Some _, Some (Json.Num _) -> Ok ()
                  | Some _, _ -> fail "C event missing numeric args.value"
                  | None, _ -> fail "C event missing ts")
               | ph -> fail (Printf.sprintf "unknown phase %S" ph))
          in
          let rec go i = function
            | [] -> Ok i
            | ev :: rest ->
              (match check i ev with Ok () -> go (i + 1) rest | Error _ as e -> e)
          in
          go 0 evs))

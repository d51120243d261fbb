(* Tests for lib/obs: the metrics registry (determinism, snapshot algebra,
   the disabled-mode no-allocation contract), the ring-buffer tracer
   (wraparound, chrome://tracing JSON round-trip through the schema
   validator), and the minimal JSON parser the validator is built on. *)

module M = Obs.Metrics
module T = Obs.Trace
module J = Obs.Json

(* Leave the global registry the way we found it: disabled and zeroed. *)
let scrub () =
  M.set_enabled false;
  T.set_enabled false;
  M.reset ()

(* --- metrics registry ------------------------------------------------------- *)

(* A seeded workload over one counter, one gauge and one histogram. *)
let workload seed =
  let rng = Util.Rng.create seed in
  let c = M.counter "t.counter"
  and g = M.gauge "t.gauge"
  and h = M.histogram "t.hist" in
  for _ = 1 to 1_000 do
    M.add c (Util.Rng.int rng 10);
    M.set_max g (Util.Rng.int rng 1_000);
    M.observe h (Util.Rng.int rng 100_000)
  done

let test_determinism () =
  M.set_enabled true;
  M.reset ();
  workload 5;
  let s1 = M.snapshot () in
  M.reset ();
  workload 5;
  let s2 = M.snapshot () in
  Alcotest.(check bool) "same seed, identical snapshot" true (s1 = s2);
  Alcotest.(check bool) "snapshot non-empty" true (s1 <> []);
  (* counters and histograms subtract away; gauges report current by design *)
  let d = M.diff s1 s2 in
  Alcotest.(check bool) "identical snapshots diff to gauges only" true
    (List.for_all (fun (_, v) -> match v with M.Gauge _ -> true | _ -> false) d);
  Alcotest.(check bool) "gauge reports current value in diff" true
    (List.assoc_opt "t.gauge" d = List.assoc_opt "t.gauge" s2);
  (* names come back sorted, so render order is stable too *)
  Alcotest.(check bool) "sorted by name" true
    (List.map fst s1 = List.sort compare (List.map fst s1));
  scrub ()

let test_recording_semantics () =
  M.set_enabled true;
  M.reset ();
  let c = M.counter "sem.c" in
  M.add c 3; M.incr c;
  let g = M.gauge "sem.g" in
  M.set g 7; M.set_max g 5;            (* 5 < 7: keeps 7 *)
  let h = M.histogram "sem.h" in
  M.observe h 1; M.observe h 100;
  let snap = M.snapshot () in
  Alcotest.(check bool) "counter" true (List.assoc "sem.c" snap = M.Counter 4);
  Alcotest.(check bool) "gauge set_max" true
    (List.assoc "sem.g" snap = M.Gauge 7);
  (match List.assoc "sem.h" snap with
   | M.Hist h ->
     Alcotest.(check int) "hist count" 2 h.count;
     Alcotest.(check int) "hist sum" 101 h.sum;
     Alcotest.(check int) "hist min" 1 h.min_v;
     Alcotest.(check int) "hist max" 100 h.max_v
   | _ -> Alcotest.fail "sem.h is not a histogram");
  (* disabled: recording is inert, snapshot drops the zeroed entries *)
  M.reset ();
  M.set_enabled false;
  M.add c 10; M.observe h 5; M.set g 3;
  Alcotest.(check bool) "disabled records nothing" true
    (List.mem_assoc "sem.c" (M.snapshot ()) = false);
  scrub ()

let test_kind_clash () =
  M.set_enabled true;
  ignore (M.counter "clash.k");
  Alcotest.check_raises "re-registration with a different kind"
    (Invalid_argument
       "Obs.Metrics: clash.k re-registered with a different kind")
    (fun () -> ignore (M.gauge "clash.k"));
  (* same-kind re-registration hands back the same cell *)
  let c1 = M.counter "clash.same" in
  let c2 = M.counter "clash.same" in
  M.add c1 2;
  Alcotest.(check int) "handles aliased" 2 !c2;
  scrub ()

(* Simulate the lib/jobs merge protocol: a worker inherits the registry,
   reports the per-job [diff], and the parent [absorb]s the deltas.  The
   merged totals must equal a serial run of the same jobs. *)
let test_parallel_merge_equals_serial () =
  M.set_enabled true;
  (* serial reference *)
  M.reset ();
  workload 11;
  workload 12;
  let serial = M.snapshot () in
  (* "worker": run both jobs in sequence, diffing around each as pool.ml
     does; the second diff has a non-empty base *)
  M.reset ();
  let base0 = M.snapshot () in
  workload 11;
  let mid = M.snapshot () in
  let d1 = M.diff base0 mid in
  workload 12;
  let d2 = M.diff mid (M.snapshot ()) in
  (* "parent": absorb the deltas in the other order — merges commute *)
  M.reset ();
  M.absorb d2;
  M.absorb d1;
  Alcotest.(check bool) "absorbed deltas = serial totals" true
    (M.snapshot () = serial);
  scrub ()

(* The one latency percentile (served stats and the load generator):
   nearest rank over p% of the span from the first to the last sample. *)
let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 |] in
  List.iter
    (fun (p, want) ->
       Alcotest.(check (float 0.0)) (Printf.sprintf "p%g" p) want
         (M.percentile a p))
    [ (0.0, 1.0); (10.0, 2.0); (50.0, 6.0); (90.0, 9.0); (95.0, 10.0);
      (99.0, 10.0); (100.0, 10.0) ];
  Alcotest.(check (float 0.0)) "empty" 0.0 (M.percentile [||] 50.0);
  List.iter
    (fun p ->
       Alcotest.(check (float 0.0)) (Printf.sprintf "single p%g" p) 7.5
         (M.percentile [| 7.5 |] p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let nothing () = ()

let test_disabled_no_allocation () =
  scrub ();
  let c = M.counter "noalloc.c" in
  let g = M.gauge "noalloc.g" in
  let h = M.histogram "noalloc.h" in
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    M.add c i;
    M.incr c;
    M.set g i;
    M.set_max g i;
    M.observe h i;
    T.instant "x";
    T.with_span "y" nothing
  done;
  let dw = Gc.minor_words () -. w0 in
  (* 700k disabled record operations; the only tolerated words are the boxed
     floats of the measurement itself *)
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f minor words" dw)
    true (dw < 256.0);
  scrub ()

(* --- trace ring buffer ------------------------------------------------------ *)

let test_ring_wraparound () =
  T.set_enabled ~capacity:8 true;
  for i = 1 to 20 do
    T.instant (Printf.sprintf "ev%d" i)
  done;
  let names = List.map (fun s -> s.T.s_name) (T.spans ()) in
  Alcotest.(check int) "ring keeps capacity spans" 8 (List.length names);
  Alcotest.(check (list string)) "oldest-first, most recent kept"
    (List.init 8 (fun i -> Printf.sprintf "ev%d" (13 + i)))
    names;
  Alcotest.(check int) "dropped count" 12 (T.dropped ());
  (* disabling keeps the collected spans for export *)
  T.set_enabled false;
  Alcotest.(check int) "spans survive disable" 8 (List.length (T.spans ()));
  scrub ()

let test_trace_json_roundtrip () =
  M.set_enabled true;
  M.reset ();
  T.set_enabled ~capacity:64 true;
  T.with_span ~args:[ ("k", "v\"quote\nnewline") ] "outer" (fun () ->
      T.with_span "inner" nothing;
      T.instant ~args:[ ("i", "1") ] "mark");
  M.count "rt.counter" 7;
  M.observe_named "rt.hist" 12;
  let doc = T.to_json ~metrics:(M.snapshot ()) () in
  (match T.validate_json doc with
   (* 1 metadata + outer/inner/mark + rt.counter + rt.hist.{count,sum} *)
   | Ok n -> Alcotest.(check int) "event count" 7 n
   | Error e -> Alcotest.fail ("schema: " ^ e));
  (match J.parse doc with
   | Error e -> Alcotest.fail ("parse: " ^ e)
   | Ok root ->
     let evs =
       match Option.bind (J.member "traceEvents" root) J.as_list with
       | Some l -> l
       | None -> Alcotest.fail "no traceEvents array"
     in
     let names =
       List.filter_map
         (fun ev -> Option.bind (J.member "name" ev) J.as_string)
         evs
     in
     List.iter
       (fun want ->
          Alcotest.(check bool) ("event " ^ want) true (List.mem want names))
       [ "outer"; "inner"; "mark"; "rt.counter"; "rt.hist.count";
         "rt.hist.sum" ];
     (* the escaped span arg survives the round trip *)
     let outer =
       List.find
         (fun ev -> J.member "name" ev |> Option.map J.as_string
                    = Some (Some "outer"))
         evs
     in
     Alcotest.(check bool) "span args round-trip" true
       (J.path [ "args"; "k" ] outer = Some (J.Str "v\"quote\nnewline")));
  scrub ()

let test_schema_rejects () =
  let bad msg doc =
    match T.validate_json doc with
    | Ok _ -> Alcotest.fail ("accepted: " ^ msg)
    | Error _ -> ()
  in
  bad "no traceEvents" "{}";
  bad "traceEvents not an array" "{\"traceEvents\":1}";
  bad "missing name" "{\"traceEvents\":[{\"ph\":\"X\"}]}";
  bad "missing ph" "{\"traceEvents\":[{\"name\":\"a\"}]}";
  bad "X without ts/dur"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\"}]}";
  bad "negative ts"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":-1,\"dur\":0,\"pid\":1,\"tid\":1}]}";
  bad "unknown phase"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Q\"}]}";
  bad "C without numeric value"
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"C\",\"ts\":0,\"args\":{\"value\":\"x\"}}]}";
  bad "not json at all" "hello";
  Alcotest.(check bool) "minimal valid doc" true
    (T.validate_json
       "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":0}]}"
     = Ok 1)

(* --- the JSON parser itself -------------------------------------------------- *)

(* Strings print with short escapes for quote, backslash, \n, \r and \t,
   \u00XX for the other control bytes, everything else verbatim; and
   [parse] inverts that on every byte value, alone and all together. *)
let test_json_escape () =
  Alcotest.(check string) "mapping" "\"\\\"\\\\\\n\\r\\t\\u0001\x7f\xff\""
    (J.to_string (J.Str "\"\\\n\r\t\x01\x7f\xff"));
  let round s =
    match J.parse (J.to_string (J.Str s)) with
    | Ok (J.Str s') -> s' = s
    | Ok _ | Error _ -> false
  in
  for c = 0 to 255 do
    Alcotest.(check bool) (Printf.sprintf "byte 0x%02x" c) true
      (round (String.make 1 (Char.chr c)))
  done;
  Alcotest.(check bool) "all bytes" true (round (String.init 256 Char.chr))

(* The number rule, case by case: integral below 1e15 without a fraction,
   non-finite as null, everything else shortest-round-trip. *)
let test_json_numbers () =
  let num f = J.to_string (J.Num f) in
  Alcotest.(check string) "nan" "null" (num Float.nan);
  Alcotest.(check string) "+inf" "null" (num Float.infinity);
  Alcotest.(check string) "-inf" "null" (num Float.neg_infinity);
  Alcotest.(check string) "non-finite in a tree" "[null,{\"x\":null}]"
    (J.to_string (J.Arr [ J.Num Float.nan; J.Obj [ ("x", J.Num Float.infinity) ] ]));
  Alcotest.(check string) "integral" "-42" (num (-42.0));
  Alcotest.(check string) "largest fraction-free" "999999999999999"
    (num 999999999999999.0);
  Alcotest.(check string) "1e15 takes %g" "1e+15" (num 1e15);
  Alcotest.(check string) "0.1 shortest" "0.1" (num 0.1);
  Alcotest.(check string) "0.1 + 0.2 needs 17 digits" "0.30000000000000004"
    (num (0.1 +. 0.2));
  Alcotest.(check string) "decimals" "32.91" (J.to_string (J.decimals 2 32.9149))

(* parse (to_string v) = Ok v over random trees whose numbers are drawn
   from the hard cases: negatives, subnormals, integers at and past 1e15,
   decimals that binary floats cannot hold exactly, and raw bit patterns. *)
let gen_json =
  let open QCheck.Gen in
  let finite f = if Float.is_finite f then f else 0.0 in
  let num =
    oneof
      [ map float_of_int int;
        map (fun f -> -.f) (float_range 0.0 1e6);
        map (fun k -> Float.ldexp (float_of_int k) (-1074)) (int_range 1 (1 lsl 20));
        map (fun k -> 1e15 +. float_of_int k) (int_range (-3) 1000);
        map (fun k -> float_of_int k *. 1e16) (int_range (-50) 50);
        map (fun (a, d) -> float_of_int a /. (10.0 ** float_of_int d))
          (pair (int_range (-100000) 100000) (int_range 1 9));
        map (fun bits -> finite (Int64.float_of_bits bits)) ui64 ]
  in
  let str = string_size ~gen:char (int_range 0 12) in
  sized_size (int_range 0 4)
  @@ fix (fun self depth ->
      let leaf =
        oneof
          [ return J.Null; map (fun b -> J.Bool b) bool; map (fun f -> J.Num f) num;
            map (fun s -> J.Str s) str ]
      in
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (1, map (fun l -> J.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
            (1,
             map (fun l -> J.Obj l)
               (list_size (int_range 0 4) (pair str (self (depth - 1))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"json: parse (to_string v) = Ok v"
    (QCheck.make ~print:J.to_string gen_json)
    (fun v -> J.parse (J.to_string v) = Ok v)

let test_json_parser () =
  let ok s = match J.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "null" true (ok "null" = J.Null);
  Alcotest.(check bool) "bools" true
    (ok "true" = J.Bool true && ok "false" = J.Bool false);
  Alcotest.(check bool) "numbers" true
    (ok "-12.5e1" = J.Num (-125.0) && ok "0" = J.Num 0.0);
  Alcotest.(check bool) "string escapes" true
    (ok "\"a\\n\\\"b\\u0041\"" = J.Str "a\n\"bA");
  Alcotest.(check bool) "nesting" true
    (ok "{\"a\":[1,{\"b\":true}]}"
     = J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Obj [ ("b", J.Bool true) ] ]) ]);
  Alcotest.(check bool) "path accessor" true
    (J.path [ "a"; "b" ] (ok "{\"a\":{\"b\":3}}") = Some (J.Num 3.0));
  let err s =
    match J.parse s with
    | Ok _ -> Alcotest.fail ("parsed: " ^ s)
    | Error _ -> ()
  in
  err "tru";
  err "{\"a\":}";
  err "[1,]";
  err "{} trailing";
  err "\"unterminated";
  err ""

let () =
  Alcotest.run "obs"
    [ ("metrics",
       [ Alcotest.test_case "seeded determinism" `Quick test_determinism;
         Alcotest.test_case "recording semantics" `Quick
           test_recording_semantics;
         Alcotest.test_case "kind clash" `Quick test_kind_clash;
         Alcotest.test_case "parallel merge = serial" `Quick
           test_parallel_merge_equals_serial;
         Alcotest.test_case "disabled mode allocates nothing" `Quick
           test_disabled_no_allocation;
         Alcotest.test_case "percentile" `Quick test_percentile ]);
      ("trace",
       [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
         Alcotest.test_case "json round-trip" `Quick
           test_trace_json_roundtrip;
         Alcotest.test_case "schema rejections" `Quick test_schema_rejects ]);
      ("json",
       [ Alcotest.test_case "parser" `Quick test_json_parser;
         Alcotest.test_case "escape round-trip" `Quick test_json_escape;
         Alcotest.test_case "number rule" `Quick test_json_numbers;
         QCheck_alcotest.to_alcotest prop_json_roundtrip ]) ]

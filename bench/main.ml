(* Benchmark gates: the emulator engines and the solver memo/portfolio,
   each written to a BENCH_*.json report and, with a baseline, gated
   against the committed one.

     dune exec bench/main.exe -- --json [FILE] [--quick] [--baseline FILE]
     dune exec bench/main.exe -- --json-solver [FILE] [--quick]
                                 [--baseline-solver FILE]

   Both legs run under `dune build @bench` (bench/dune).  A report FILE
   defaults to the committed file's name in the working directory, so a
   run that would write its report over a baseline it reads exits 2
   before measuring.  The quick-scale regeneration of every table and
   figure is `bin/experiments.exe all`. *)

module J = Obs.Json

(* --- emulator engine benchmark (--json) ---------------------------------- *)

(* Measures both execution engines on the Fig. 5 workloads: the reference
   stepper ([Semantics.Make] over the CPU) and the block-translating fast
   engine.  Engines are interleaved round-robin in one process and the best
   round per engine is reported, so machine noise cannot manufacture a
   speedup. *)

type workload = {
  w_name : string;
  w_img : Image.t;
  w_func : string;
  w_args : int64 list;
  w_fuel : int;
}

let make_workloads () =
  let fannkuch =
    let _, prog, fns, _ = List.nth Minic.Clbg.all 1 in
    let img = Minic.Codegen.compile prog in
    let rop =
      (Ropc.Rewriter.rewrite img ~functions:fns
         ~config:(Ropc.Config.rop_k 0.05)).Ropc.Rewriter.image
    in
    { w_name = "fannkuch_rop_0.05"; w_img = rop; w_func = "bench";
      w_args = [ 6L ]; w_fuel = 100_000_000 }
  in
  let base64 =
    let img = Minic.Codegen.compile (Minic.Programs.base64_program ()) in
    let rop =
      (Ropc.Rewriter.rewrite img ~functions:[ "b64_check"; "b64_encode" ]
         ~config:(Ropc.Config.rop_k 0.25)).Ropc.Rewriter.image
    in
    { w_name = "base64_rop_0.25"; w_img = rop; w_func = "b64_check";
      w_args = [ Minic.Programs.secret_arg ]; w_fuel = 100_000_000 }
  in
  [ fannkuch; base64 ]

(* One observation: termination class + rax + retired steps + wall seconds
   of the run itself (setup and memory cloning stay untimed). *)
type obs = { o_status : string; o_rax : int64; o_steps : int; o_dt : float }

let run_machine_engine eng w mem0 =
  let t =
    Runner.setup ~engine:eng ~mem:(Machine.Memory.copy mem0) w.w_img
      ~func:w.w_func ~args:w.w_args
  in
  let t0 = Unix.gettimeofday () in
  let status = Machine.Exec.run ~fuel:w.w_fuel t in
  let dt = Unix.gettimeofday () -. t0 in
  let cpu = t.Machine.Exec.cpu in
  { o_status =
      (match status with
       | Machine.Exec.Halted -> "halted"
       | Machine.Exec.Fault _ -> "fault"
       | Machine.Exec.Out_of_fuel -> "out-of-fuel");
    o_rax = Machine.Cpu.get cpu X86.Isa.RAX;
    o_steps = cpu.Machine.Cpu.steps;
    o_dt = dt }

type engine_result = { name : string; ns_per_step : float }

type workload_result = {
  wr_name : string;
  wr_steps : int;
  wr_engines : engine_result list;   (* ref, fast *)
  wr_equal : (unit, string) result;  (* cross-engine observable equality *)
}

let ns_per_step (o : obs) = o.o_dt /. float_of_int (max 1 o.o_steps) *. 1e9

let bench_workload ~rounds w : workload_result =
  let mem0 = Image.load w.w_img in
  let engines =
    [ ("ref", fun () -> run_machine_engine Machine.Exec.Ref w mem0);
      ("fast", fun () -> run_machine_engine Machine.Exec.Fast w mem0) ]
  in
  (* warm-up + equality check in one pass *)
  let first = List.map (fun (n, f) -> (n, f ())) engines in
  let fast0 = List.assoc "fast" first in
  let wr_equal =
    List.fold_left
      (fun acc (n, o) ->
         match acc with
         | Error _ -> acc
         | Ok () ->
           if o.o_status <> fast0.o_status then
             Error (Printf.sprintf "%s status %s vs fast %s" n o.o_status
                      fast0.o_status)
           else if o.o_rax <> fast0.o_rax then
             Error (Printf.sprintf "%s rax %Ld vs fast %Ld" n o.o_rax
                      fast0.o_rax)
           else if o.o_steps <> fast0.o_steps then
             Error (Printf.sprintf "%s steps %d vs fast %d" n o.o_steps
                      fast0.o_steps)
           else acc)
      (Ok ()) first
  in
  let best = Array.make (List.length engines) infinity in
  for _ = 1 to rounds do
    List.iteri
      (fun i (_, f) ->
         let ns = ns_per_step (f ()) in
         if ns < best.(i) then best.(i) <- ns)
      engines
  done;
  { wr_name = w.w_name;
    wr_steps = fast0.o_steps;
    wr_engines =
      List.mapi (fun i (n, _) -> { name = n; ns_per_step = best.(i) }) engines;
    wr_equal }

let json_of_results ~quick (wrs : workload_result list) =
  let speedup wr a bname =
    let find n = List.find (fun (e : engine_result) -> e.name = n) wr.wr_engines in
    (find a).ns_per_step /. (find bname).ns_per_step
  in
  let engine (e : engine_result) =
    ( e.name,
      J.Obj
        [ ("ns_per_step", J.decimals 2 e.ns_per_step);
          ("steps_per_sec", J.decimals 0 (1e9 /. e.ns_per_step)) ] )
  in
  let workload wr =
    J.Obj
      [ ("name", J.Str wr.wr_name); ("steps", J.int wr.wr_steps);
        ("engines", J.Obj (List.map engine wr.wr_engines));
        ("speedup_fast_vs_ref", J.decimals 2 (speedup wr "ref" "fast"));
        ("equality",
         J.Str (match wr.wr_equal with Ok () -> "ok" | Error m -> "mismatch: " ^ m)) ]
  in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "bench_emulator/v2"); ("quick", J.Bool quick);
         ("workloads", J.Arr (List.map workload wrs)) ])
  ^ "\n"

(* --- baseline gate (--baseline FILE) --------------------------------------

   Compares this run with a committed BENCH_emulator.json.  Retired steps
   are deterministic, and both engines are checked equal, so each
   workload's steps must match the baseline exactly.  Fast-engine
   steps/sec must stay within 5%.  This is the observability cost contract
   made executable: the metric/trace hooks are compiled into the engines
   unconditionally, and the gate holds while they stay disabled. *)

let regression_floor = 0.95

(* Parsed before this run writes its own JSON: the two paths may be the
   same file. *)
let load_baseline path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  J.parse doc

let baseline_workload root name =
  match Option.bind (J.member "workloads" root) J.as_list with
  | None -> None
  | Some ws ->
    List.find_opt (fun w -> J.member "name" w = Some (J.Str name)) ws

let check_steps ~path root (wrs : workload_result list) =
  Printf.printf "== Steps gate (%s, exact) ==\n" path;
  List.for_all
    (fun wr ->
       match Option.bind (baseline_workload root wr.wr_name)
               (J.member "steps") with
       | Some (J.Num base) ->
         let ok = float_of_int wr.wr_steps = base in
         Printf.printf "  %-20s %12d steps vs baseline %12.0f  %s\n"
           wr.wr_name wr.wr_steps base (if ok then "ok" else "MISMATCH");
         ok
       | _ ->
         Printf.printf "  %-20s no baseline entry; skipped\n" wr.wr_name;
         true)
    wrs

let check_baseline ~path root (wrs : workload_result list) =
  let base_fast name =
    match Option.bind (baseline_workload root name)
            (J.path [ "engines"; "fast"; "steps_per_sec" ]) with
    | Some (J.Num sps) -> Some sps
    | _ -> None
  in
  Printf.printf "== Baseline gate (%s, fast engine within %.0f%%) ==\n" path
    ((1.0 -. regression_floor) *. 100.0);
  List.for_all
    (fun wr ->
       let fast =
         List.find (fun (e : engine_result) -> e.name = "fast") wr.wr_engines
       in
       let cur = 1e9 /. fast.ns_per_step in
       match base_fast wr.wr_name with
       | None ->
         Printf.printf "  %-20s no baseline entry; skipped\n" wr.wr_name;
         true
       | Some base ->
         let ratio = cur /. base in
         Printf.printf
           "  %-20s %12.0f steps/sec vs baseline %12.0f  (%.2fx) %s\n"
           wr.wr_name cur base ratio
           (if ratio >= regression_floor then "ok" else "REGRESSION");
         ratio >= regression_floor)
    wrs

let run_json ~quick ~baseline ~path =
  (* each round is a few ms per engine; 20 rounds keeps the best-of estimate
     stable enough for the 5% baseline gate even in quick mode *)
  let rounds = 20 in
  let baseline = Option.map (fun p -> (p, load_baseline p)) baseline in
  let wrs = List.map (bench_workload ~rounds) (make_workloads ()) in
  Printf.printf "== Emulator engines (best of %d rounds) ==\n" rounds;
  List.iter
    (fun wr ->
       Printf.printf "%s (%d steps):\n" wr.wr_name wr.wr_steps;
       List.iter
         (fun (e : engine_result) ->
            Printf.printf "  %-5s %8.1f ns/step  %12.0f steps/sec\n" e.name
              e.ns_per_step (1e9 /. e.ns_per_step))
         wr.wr_engines;
       (match wr.wr_equal with
        | Ok () -> Printf.printf "  engines agree (status, rax, steps)\n%!"
        | Error m -> Printf.printf "  ENGINE MISMATCH: %s\n%!" m))
    wrs;
  let json = json_of_results ~quick wrs in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if List.exists (fun wr -> wr.wr_equal <> Ok ()) wrs then exit 1;
  match baseline with
  | None -> ()
  | Some (p, Error e) ->
    Printf.printf "baseline %s: parse error: %s\n%!" p e;
    exit 1
  | Some (p, Ok root) ->
    if not (check_steps ~path:p root wrs) then begin
      Printf.printf "steps gate FAILED: retired steps differ from %s\n%!" p;
      exit 1
    end;
    if not (check_baseline ~path:p root wrs) then begin
      (* transient container load can shave a few percent off one sample;
         re-measure once with more rounds before calling it a regression *)
      Printf.printf "baseline gate missed; re-measuring (%d rounds)\n%!"
        (rounds * 2);
      let wrs = List.map (bench_workload ~rounds:(rounds * 2)) (make_workloads ()) in
      if not (check_baseline ~path:p root wrs) then begin
        Printf.printf
          "baseline gate FAILED: fast engine regressed more than %.0f%%\n%!"
          ((1.0 -. regression_floor) *. 100.0);
        exit 1
      end
    end

(* --- solver portfolio/memo benchmark (--json-solver) ----------------------

   Repeated-query throughput: a seeded corpus of symbolic-path queries is
   solved [rounds] times over, the way a DSE sweep re-queries the same
   normalized constraints along neighboring paths.  Three modes:

     serial     — the pipeline solver, no memo (every round pays full price)
     memoized   — pipeline + content-addressed memo (round 2+ are hits)
     portfolio  — strategy race + memo

   The acceptance criterion from the campaign work: memoized and portfolio
   throughput each at least 2x serial on this workload. *)

module Sv = Symex.Solver
module Ex = Symex.Expr

let solver_corpus n =
  let r = Util.Rng.create 4242 in
  let byte () = Int64.of_int (Util.Rng.int r 256) in
  List.init n (fun i ->
      let h a b c1 c2 =
        Ex.bin Ex.Xor (Ex.bin Ex.Mul a (Ex.Const c1))
          (Ex.bin Ex.Mul b (Ex.Const c2))
      in
      if i mod 3 = 0 then
        (* shallow query: a concrete branch flip, cheap in every mode *)
        [ { Sv.cond = Ex.bin Ex.Eq (Ex.Input 0) (Ex.Const (byte ()));
            want = true } ]
      else begin
        (* mixing query: the solver earns its keep (or burns its budget) *)
        let c1 = Int64.of_int (131 + Util.Rng.int r 1000) in
        let c2 = Int64.of_int (77 + Util.Rng.int r 1000) in
        let target = h (Ex.Const (byte ())) (Ex.Const (byte ())) c1 c2 in
        [ { Sv.cond =
              Ex.bin Ex.Eq (h (Ex.Input 0) (Ex.Input 1) c1 c2) target;
            want = true };
          { Sv.cond = Ex.bin Ex.Ult (Ex.Input 0) (Ex.Const 251L);
            want = true } ]
      end)

type solver_mode_result = {
  sm_name : string;
  sm_qps : float;               (* queries per second, best of reps *)
  sm_evals : int;               (* expression evaluations, one rep *)
  sm_memo_hits : int;
}

let bench_solver_mode ~reps ~rounds ~corpus sm_name mode ~with_memo =
  let n = List.length corpus in
  let best = ref infinity in
  let last_evals = ref 0 and last_hits = ref 0 in
  for _ = 1 to reps do
    (* fresh memo per rep: round 1 misses, rounds 2+ hit, like a real run *)
    let memo = if with_memo then Some (Sv.Memo.create ()) else None in
    let stats = Sv.make_stats () in
    let t0 = Unix.gettimeofday () in
    for round = 1 to rounds do
      List.iteri
        (fun i cs ->
           ignore
             (Sv.solve_verdict ~rng:(Util.Rng.create ((round * 7919) + i))
                ~stats ?memo ~mode ~n_inputs:2 ~max_evals:4_000 cs))
        corpus
    done;
    let dt = Float.max 1e-6 (Unix.gettimeofday () -. t0) in
    best := Float.min !best (dt /. float_of_int (rounds * n));
    last_evals := stats.Sv.evals;
    last_hits := (match memo with Some m -> m.Sv.Memo.hits | None -> 0)
  done;
  { sm_name; sm_qps = 1.0 /. !best; sm_evals = !last_evals;
    sm_memo_hits = !last_hits }

let solver_speedup (rs : solver_mode_result list) name =
  let find n = List.find (fun r -> r.sm_name = n) rs in
  (find name).sm_qps /. (find "serial").sm_qps

let run_solver_bench ~reps ~rounds =
  let corpus = solver_corpus 42 in
  let rs =
    [ bench_solver_mode ~reps ~rounds ~corpus "serial" Sv.Pipeline
        ~with_memo:false;
      bench_solver_mode ~reps ~rounds ~corpus "memoized" Sv.Pipeline
        ~with_memo:true;
      bench_solver_mode ~reps ~rounds ~corpus "portfolio" Sv.Portfolio
        ~with_memo:true ]
  in
  Printf.printf
    "== Solver throughput (%d queries x %d rounds, best of %d reps) ==\n"
    (List.length corpus) rounds reps;
  List.iter
    (fun r ->
       Printf.printf "  %-10s %10.0f queries/sec  %9d evals  %5d memo hits\n"
         r.sm_name r.sm_qps r.sm_evals r.sm_memo_hits)
    rs;
  rs

let json_of_solver_results ~quick ~rounds (rs : solver_mode_result list) =
  let memo_x = solver_speedup rs "memoized" in
  let port_x = solver_speedup rs "portfolio" in
  let mode r =
    ( r.sm_name,
      J.Obj
        [ ("queries_per_sec", J.decimals 0 r.sm_qps); ("evals", J.int r.sm_evals);
          ("memo_hits", J.int r.sm_memo_hits) ] )
  in
  let counts r =
    ( r.sm_name,
      J.Obj [ ("evals", J.int r.sm_evals); ("memo_hits", J.int r.sm_memo_hits) ] )
  in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "bench_solver/v1"); ("quick", J.Bool quick);
         ("corpus", J.Obj [ ("queries", J.int 42); ("rounds", J.int rounds) ]);
         ("modes", J.Obj (List.map mode rs));
         ("speedup_memoized_vs_serial", J.decimals 2 memo_x);
         ("speedup_portfolio_vs_serial", J.decimals 2 port_x);
         ("exact_counts",
          J.Obj [ (string_of_int rounds, J.Obj (List.map counts rs)) ]);
         ("acceptance",
          J.Obj
            [ ("criterion",
               J.Str
                 "memoized and portfolio each >= 2x serial queries/sec on the \
                  repeated-query corpus");
              ("pass", J.Bool (memo_x >= 2.0 && port_x >= 2.0)) ]) ])
  ^ "\n"

(* Baseline gate on *speedups* (machine-independent, unlike raw qps): this
   run's memoized and portfolio speedups must reach 95%% of the committed
   ones, capped at 2.5x so an unusually fast baseline box cannot ratchet
   the gate out of reach. *)
let solver_speedup_cap = 2.5

let check_solver_baseline ~path root (rs : solver_mode_result list) =
  let base name =
    match J.member name root with
    | Some (J.Num x) -> Some x
    | _ -> None
  in
  Printf.printf "== Solver baseline gate (%s) ==\n" path;
  List.for_all
    (fun (key, mode) ->
       match base key with
       | None ->
         Printf.printf "  %-30s no baseline entry; skipped\n" key;
         true
       | Some b ->
         let cur = solver_speedup rs mode in
         let floor = regression_floor *. Float.min b solver_speedup_cap in
         Printf.printf "  %-30s %.2fx vs baseline %.2fx (floor %.2fx) %s\n"
           key cur b floor
           (if cur >= floor then "ok" else "REGRESSION");
         cur >= floor)
    [ ("speedup_memoized_vs_serial", "memoized");
      ("speedup_portfolio_vs_serial", "portfolio") ]

(* Exact gate on the deterministic counts: per mode, the evaluations and
   memo hits of one rep must equal the baseline's for the same round count.
   They depend on the round count, so the committed report keeps an
   "exact_counts" entry for the quick leg's rounds beside its own. *)
let check_solver_counts ~path ~rounds root (rs : solver_mode_result list) =
  Printf.printf "== Solver counts gate (%s, exact, %d rounds) ==\n" path rounds;
  List.for_all
    (fun r ->
       let base k =
         match J.path [ "exact_counts"; string_of_int rounds; r.sm_name; k ] root with
         | Some (J.Num x) -> Some x
         | _ -> None
       in
       match base "evals", base "memo_hits" with
       | Some evals, Some hits ->
         let ok =
           float_of_int r.sm_evals = evals && float_of_int r.sm_memo_hits = hits
         in
         Printf.printf "  %-10s %9d evals %5d memo hits vs baseline %9.0f %5.0f  %s\n"
           r.sm_name r.sm_evals r.sm_memo_hits evals hits
           (if ok then "ok" else "MISMATCH");
         ok
       | _ ->
         Printf.printf "  %-10s no baseline entry; skipped\n" r.sm_name;
         true)
    rs

let run_solver_json ~quick ~baseline ~path =
  let reps = if quick then 2 else 3 in
  let rounds = if quick then 6 else 10 in
  let baseline = Option.map (fun p -> (p, load_baseline p)) baseline in
  let rs = run_solver_bench ~reps ~rounds in
  let oc = open_out path in
  output_string oc (json_of_solver_results ~quick ~rounds rs);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  match baseline with
  | None -> ()
  | Some (p, Error e) ->
    Printf.printf "baseline %s: parse error: %s\n%!" p e;
    exit 1
  | Some (p, Ok root) ->
    if not (check_solver_counts ~path:p ~rounds root rs) then begin
      Printf.printf "solver counts gate FAILED: counts differ from %s\n%!" p;
      exit 1
    end;
    if not (check_solver_baseline ~path:p root rs) then begin
      Printf.printf "solver gate missed; re-measuring\n%!";
      let rs = run_solver_bench ~reps:(reps * 2) ~rounds in
      if not (check_solver_baseline ~path:p root rs) then begin
        Printf.printf "solver baseline gate FAILED\n%!";
        exit 1
      end
    end

(* Same device and inode: catches any spelling of one path. *)
let same_file a b =
  match Unix.stat a, Unix.stat b with
  | sa, sb -> sa.Unix.st_dev = sb.Unix.st_dev && sa.Unix.st_ino = sb.Unix.st_ino
  | exception Unix.Unix_error _ -> false

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let rec json_path = function
    | [] -> None
    | "--json" :: p :: _ when String.length p > 0 && p.[0] <> '-' -> Some p
    | "--json" :: _ -> Some "BENCH_emulator.json"
    | _ :: rest -> json_path rest
  in
  let rec baseline_path = function
    | [] -> None
    | "--baseline" :: p :: _ -> Some p
    | _ :: rest -> baseline_path rest
  in
  let rec solver_json_path = function
    | [] -> None
    | "--json-solver" :: p :: _ when String.length p > 0 && p.[0] <> '-' ->
      Some p
    | "--json-solver" :: _ -> Some "BENCH_solver.json"
    | _ :: rest -> solver_json_path rest
  in
  let rec solver_baseline_path = function
    | [] -> None
    | "--baseline-solver" :: p :: _ -> Some p
    | _ :: rest -> solver_baseline_path rest
  in
  List.iter
    (fun report ->
       List.iter
         (fun baseline ->
            if same_file report baseline then begin
              Printf.eprintf
                "main.exe: the report %s is the baseline %s; name another \
                 report FILE after --json/--json-solver\n"
                report baseline;
              exit 2
            end)
         (List.filter_map Fun.id
            [ baseline_path argv; solver_baseline_path argv ]))
    (List.filter_map Fun.id [ json_path argv; solver_json_path argv ]);
  match json_path argv, solver_json_path argv with
  | Some path, solver ->
    run_json ~quick ~baseline:(baseline_path argv) ~path;
    (match solver with
     | Some sp ->
       run_solver_json ~quick ~baseline:(solver_baseline_path argv) ~path:sp
     | None -> ())
  | None, Some sp ->
    run_solver_json ~quick ~baseline:(solver_baseline_path argv) ~path:sp
  | None, None ->
    prerr_string
      "usage: main.exe --json [FILE] [--quick] [--baseline FILE]\n\
      \       main.exe --json-solver [FILE] [--quick] [--baseline-solver FILE]\n";
    exit 2

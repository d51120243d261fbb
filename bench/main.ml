(* Benchmark harness: one Bechamel micro-benchmark per table/figure of the
   paper (measuring the core operation each experiment exercises), followed
   by the quick-scale regeneration of every table and figure.

     dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* --- one Test.make per table/figure -------------------------------------- *)

(* Table II: one DSE attack on a small protected target *)
let bench_table2 =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:3 ~seed:1 ~input_size:1
         ~control_index:0 ())
  in
  let img = Minic.Codegen.compile t.Minic.Randomfuns.prog in
  let rop =
    (Ropc.Rewriter.rewrite img ~functions:[ "target" ]
       ~config:(Ropc.Config.rop_k 0.25)).Ropc.Rewriter.image
  in
  let budget =
    { Symex.Engine.default_budget with wall_seconds = 0.4; solver_evals = 4000 }
  in
  Test.make ~name:"table2: DSE attack on ROP_0.25 target"
    (Staged.stage (fun () ->
         let tgt = { Symex.Engine.img = rop; func = "target"; n_inputs = 1 } in
         ignore (Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt)))

(* Figure 5: chain execution overhead: run one ROP-encoded clbg benchmark *)
let bench_fig5 =
  let _, prog, fns, _ = List.nth Minic.Clbg.all 1 (* fannkuch *) in
  let img = Minic.Codegen.compile prog in
  let rop =
    (Ropc.Rewriter.rewrite img ~functions:fns
       ~config:(Ropc.Config.rop_k 0.05)).Ropc.Rewriter.image
  in
  Test.make ~name:"fig5: ROP_0.05 fannkuch execution"
    (Staged.stage (fun () ->
         ignore (Runner.call_exn ~fuel:100_000_000 rop ~func:"bench" ~args:[ 6L ])))

(* Table III: a full rewrite of a clbg benchmark (chain crafting throughput) *)
let bench_table3 =
  let _, prog, fns, _ = List.nth Minic.Clbg.all 2 (* fasta *) in
  Test.make ~name:"table3: rewrite fasta at k=1.0"
    (Staged.stage (fun () ->
         let img = Minic.Codegen.compile prog in
         ignore
           (Ropc.Rewriter.rewrite img ~functions:fns
              ~config:(Ropc.Config.rop_k 1.0))))

(* Table IV: RandomFuns generation *)
let bench_table4 =
  Test.make ~name:"table4: RandomFuns generation"
    (Staged.stage (fun () ->
         ignore
           (Minic.Randomfuns.generate
              (Minic.Randomfuns.default_params ~seed:3 ~input_size:4
                 ~control_index:4 ()))))

(* §VII-A.1: a TDS trace simplification *)
let bench_efficacy =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:3 ~seed:1 ~input_size:1
         ~control_index:0 ())
  in
  let img = Minic.Codegen.compile t.Minic.Randomfuns.prog in
  let rop =
    (Ropc.Rewriter.rewrite img ~functions:[ "target" ]
       ~config:(Ropc.Config.rop_k 0.5)).Ropc.Rewriter.image
  in
  Test.make ~name:"efficacy: TDS on a P3 chain"
    (Staged.stage (fun () ->
         ignore (Taint.Tds.run ~fuel:200_000 rop ~func:"target" ~n_inputs:1 ~input:[| 9 |])))

(* §VII-A.2: a ROPDissector chain analysis *)
let bench_ropaware =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:3 ~seed:1 ~input_size:1
         ~control_index:5 ())
  in
  let img = Minic.Codegen.compile t.Minic.Randomfuns.prog in
  let r =
    Ropc.Rewriter.rewrite img ~functions:[ "target" ]
      ~config:(Ropc.Config.plain ())
  in
  let addr, len =
    match List.assoc "target" r.Ropc.Rewriter.funcs with
    | Ok st -> (st.Ropc.Rewriter.fs_chain_addr, st.Ropc.Rewriter.fs_chain_bytes)
    | Error _ -> assert false
  in
  let img = r.Ropc.Rewriter.image in
  Test.make ~name:"ropaware: ROPDissector chain walk"
    (Staged.stage (fun () ->
         ignore (Ropaware.Ropdissector.analyze img ~chain_addr:addr ~chain_len:len)))

(* §VII-C1: corpus rewrite coverage *)
let bench_coverage =
  Test.make ~name:"coverage: rewrite the corpus"
    (Staged.stage (fun () ->
         let img = Minic.Corpus.compile () in
         ignore
           (Ropc.Rewriter.rewrite img ~functions:Minic.Corpus.all_names
              ~config:(Ropc.Config.plain ()))))

(* §VII-C3: the base64 chain *)
let bench_casestudy =
  let prog = Minic.Programs.base64_program () in
  let img = Minic.Codegen.compile prog in
  let rop =
    (Ropc.Rewriter.rewrite img ~functions:[ "b64_check"; "b64_encode" ]
       ~config:(Ropc.Config.rop_k 0.25)).Ropc.Rewriter.image
  in
  Test.make ~name:"casestudy: ROP_0.25 base64 check"
    (Staged.stage (fun () ->
         ignore
           (Runner.call_exn ~fuel:100_000_000 rop ~func:"b64_check"
              ~args:[ Minic.Programs.secret_arg ])))

(* lib/jobs: fixed cost of the pool itself — fork, dispatch, marshal both
   ways, reap — measured on trivial tasks so the scheduler overhead is the
   whole signal.  Worth watching: every experiment cell pays this once. *)
let bench_jobs =
  Test.make ~name:"jobs: 8-task round-trip on a 2-worker pool"
    (Staged.stage (fun () ->
         ignore
           (Jobs.Pool.map
              { Jobs.Pool.default with Jobs.Pool.jobs = 2 }
              ~key:string_of_int
              ~f:(fun i -> i * i)
              (List.init 8 Fun.id))))

let tests =
  [ bench_table2; bench_fig5; bench_table3; bench_table4; bench_efficacy;
    bench_ropaware; bench_coverage; bench_casestudy; bench_jobs ]

(* Returns [(name, ns_per_run option)] so --json can embed the estimates. *)
let run_benchmarks ?(quota = 1.5) ?(limit = 200) () =
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "== Bechamel micro-benchmarks (one per table/figure) ==\n%!";
  let out = ref [] in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let results = Analyze.all ols Instance.monotonic_clock results in
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              Printf.printf "%-45s %12.0f ns/run\n%!" name est;
              out := (name, Some est) :: !out
            | Some _ | None ->
              Printf.printf "%-45s (no estimate)\n%!" name;
              out := (name, None) :: !out)
         results)
    tests;
  List.rev !out

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

type engine_result = { name : string; ns_per_step : float; steps : int }

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
      List.mapi
        (fun i (n, _) ->
           { name = n; ns_per_step = best.(i); steps = fast0.o_steps })
        engines;
    wr_equal }

(* Hand-rolled JSON, same idiom as lib/jobs/manifest.ml. *)
let json_of_results ~quick (wrs : workload_result list)
    (micro : (string * float option) list) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let jstr s =
    let e = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | '"' -> Buffer.add_string e "\\\""
        | '\\' -> Buffer.add_string e "\\\\"
        | '\n' -> Buffer.add_string e "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string e (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char e c)
      s;
    Buffer.contents e
  in
  let speedup wr a bname =
    let find n = List.find (fun (e : engine_result) -> e.name = n) wr.wr_engines in
    (find a).ns_per_step /. (find bname).ns_per_step
  in
  pf "{\n";
  pf "  \"schema\": \"bench_emulator/v1\",\n";
  pf "  \"quick\": %b,\n" quick;
  pf "  \"workloads\": [\n";
  List.iteri
    (fun i wr ->
       pf "    {\n";
       pf "      \"name\": \"%s\",\n" (jstr wr.wr_name);
       pf "      \"steps\": %d,\n" wr.wr_steps;
       pf "      \"engines\": {\n";
       List.iteri
         (fun j (e : engine_result) ->
            pf "        \"%s\": { \"ns_per_step\": %.2f, \"steps_per_sec\": %.0f }%s\n"
              (jstr e.name) e.ns_per_step
              (1e9 /. e.ns_per_step)
              (if j = List.length wr.wr_engines - 1 then "" else ","))
         wr.wr_engines;
       pf "      },\n";
       pf "      \"speedup_fast_vs_ref\": %.2f,\n" (speedup wr "ref" "fast");
       pf "      \"equality\": \"%s\"\n"
         (match wr.wr_equal with
          | Ok () -> "ok"
          | Error m -> jstr ("mismatch: " ^ m));
       pf "    }%s\n" (if i = List.length wrs - 1 then "" else ",")
    )
    wrs;
  pf "  ],\n";
  pf "  \"microbench_ns_per_run\": [\n";
  List.iteri
    (fun i (n, est) ->
       pf "    { \"name\": \"%s\", \"ns\": %s }%s\n" (jstr n)
         (match est with Some e -> Printf.sprintf "%.0f" e | None -> "null")
         (if i = List.length micro - 1 then "" else ","))
    micro;
  pf "  ]\n";
  pf "}\n";
  Buffer.contents b

(* --- baseline gate (--baseline FILE) --------------------------------------

   Compares this run's fast-engine steps/sec per workload against a committed
   BENCH_emulator.json and fails on a regression beyond 5%.  This is the
   observability cost contract made executable: the metric/trace hooks are
   compiled into the engines unconditionally, and the gate holds while they
   stay disabled. *)

let regression_floor = 0.95

let check_baseline ~path (wrs : workload_result list) =
  let module J = Obs.Json in
  let doc =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  match J.parse doc with
  | Error e ->
    Printf.printf "baseline %s: parse error: %s\n%!" path e;
    false
  | Ok root ->
    let base_fast name =
      match Option.bind (J.member "workloads" root) J.to_list with
      | None -> None
      | Some ws ->
        List.find_map
          (fun w ->
             match J.member "name" w with
             | Some (J.Str n) when n = name ->
               (match J.path [ "engines"; "fast"; "steps_per_sec" ] w with
                | Some (J.Num sps) -> Some sps
                | _ -> None)
             | _ -> None)
          ws
    in
    Printf.printf "== Baseline gate (%s, fast engine within %.0f%%) ==\n" path
      ((1.0 -. regression_floor) *. 100.0);
    let ok =
      List.for_all
        (fun wr ->
           let fast =
             List.find (fun (e : engine_result) -> e.name = "fast")
               wr.wr_engines
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
    in
    ok

let run_json ~quick ~baseline ~path =
  (* each round is a few ms per engine; 20 rounds keeps the best-of estimate
     stable enough for the 5% baseline gate even in quick mode *)
  let rounds = 20 in
  let quota = if quick then 0.4 else 1.5 in
  let limit = if quick then 50 else 200 in
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
  let micro = run_benchmarks ~quota ~limit () in
  let json = json_of_results ~quick wrs micro in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  if List.exists (fun wr -> wr.wr_equal <> Ok ()) wrs then exit 1;
  match baseline with
  | None -> ()
  | Some p ->
    if not (check_baseline ~path:p wrs) then begin
      (* transient container load can shave a few percent off one sample;
         re-measure once with more rounds before calling it a regression *)
      Printf.printf "baseline gate missed; re-measuring (%d rounds)\n%!"
        (rounds * 2);
      let wrs = List.map (bench_workload ~rounds:(rounds * 2)) (make_workloads ()) in
      if not (check_baseline ~path:p wrs) then begin
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
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let memo_x = solver_speedup rs "memoized" in
  let port_x = solver_speedup rs "portfolio" in
  pf "{\n";
  pf "  \"schema\": \"bench_solver/v1\",\n";
  pf "  \"quick\": %b,\n" quick;
  pf "  \"corpus\": { \"queries\": 42, \"rounds\": %d },\n" rounds;
  pf "  \"modes\": {\n";
  List.iteri
    (fun i r ->
       pf "    \"%s\": { \"queries_per_sec\": %.0f, \"evals\": %d, \"memo_hits\": %d }%s\n"
         r.sm_name r.sm_qps r.sm_evals r.sm_memo_hits
         (if i = List.length rs - 1 then "" else ","))
    rs;
  pf "  },\n";
  pf "  \"speedup_memoized_vs_serial\": %.2f,\n" memo_x;
  pf "  \"speedup_portfolio_vs_serial\": %.2f,\n" port_x;
  pf "  \"acceptance\": {\n";
  pf "    \"criterion\": \"memoized and portfolio each >= 2x serial queries/sec on the repeated-query corpus\",\n";
  pf "    \"pass\": %b\n" (memo_x >= 2.0 && port_x >= 2.0);
  pf "  }\n";
  pf "}\n";
  Buffer.contents b

(* Baseline gate on *speedups* (machine-independent, unlike raw qps): this
   run's memoized and portfolio speedups must reach 95%% of the committed
   ones, capped at 2.5x so an unusually fast baseline box cannot ratchet
   the gate out of reach. *)
let solver_speedup_cap = 2.5

let check_solver_baseline ~path (rs : solver_mode_result list) =
  let module J = Obs.Json in
  let doc =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  match J.parse doc with
  | Error e ->
    Printf.printf "baseline %s: parse error: %s\n%!" path e;
    false
  | Ok root ->
    let base name =
      match J.member name root with Some (J.Num x) -> Some x | _ -> None
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
           let floor =
             regression_floor *. Float.min b solver_speedup_cap
           in
           Printf.printf "  %-30s %.2fx vs baseline %.2fx (floor %.2fx) %s\n"
             key cur b floor
             (if cur >= floor then "ok" else "REGRESSION");
           cur >= floor)
      [ ("speedup_memoized_vs_serial", "memoized");
        ("speedup_portfolio_vs_serial", "portfolio") ]

let run_solver_json ~quick ~baseline ~path =
  let reps = if quick then 2 else 3 in
  let rounds = if quick then 6 else 10 in
  let rs = run_solver_bench ~reps ~rounds in
  let oc = open_out path in
  output_string oc (json_of_solver_results ~quick ~rounds rs);
  close_out oc;
  Printf.printf "wrote %s\n%!" path;
  match baseline with
  | None -> ()
  | Some p ->
    if not (check_solver_baseline ~path:p rs) then begin
      Printf.printf "solver gate missed; re-measuring\n%!";
      let rs = run_solver_bench ~reps:(reps * 2) ~rounds in
      if not (check_solver_baseline ~path:p rs) then begin
        Printf.printf "solver baseline gate FAILED\n%!";
        exit 1
      end
    end

let run_full () =
  ignore (run_benchmarks ());
  Printf.printf "\n== Quick-scale regeneration of every table and figure ==\n%!";
  Harness.Experiments.table4 ();
  ignore (Harness.Experiments.table3 ());
  ignore (Harness.Experiments.fig5 ());
  ignore (Harness.Experiments.coverage ());
  Harness.Experiments.ropaware ();
  Harness.Experiments.efficacy ~budget_s:4.0 ();
  Harness.Experiments.casestudy ~budget_s:6.0 ();
  (* the big matrix goes through the worker pool, as bin/experiments does *)
  ignore
    (Harness.Experiments.table2
       ~pool:{ Jobs.Pool.default with Jobs.Pool.jobs = 2 }
       ~scale:Harness.Experiments.quick_scale ())

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
  match json_path argv, solver_json_path argv with
  | Some path, solver ->
    run_json ~quick ~baseline:(baseline_path argv) ~path;
    (match solver with
     | Some sp ->
       run_solver_json ~quick ~baseline:(solver_baseline_path argv) ~path:sp
     | None -> ())
  | None, Some sp ->
    run_solver_json ~quick ~baseline:(solver_baseline_path argv) ~path:sp
  | None, None -> run_full ()

(* Experiment runners: one per table/figure of the paper's evaluation
   (DESIGN.md per-experiment index).  All budgets are scaled down from the
   paper's 1-hour-per-target setting; EXPERIMENTS.md records paper-vs-ours
   for every row. *)

module E = Symex.Engine

type scale = {
  budget_s : float;            (* attack wall budget per target *)
  loop_size : int;             (* RandomFuns loop bound (paper: 25) *)
  seeds : int list;            (* RandomFuns seeds (paper: 1,2,3) *)
  input_sizes : int list;      (* paper: 1,2,4,8 *)
  controls : int list;         (* Table IV rows, paper: all 6 *)
  configs : Configs.named list;
}

(* Small scale: minutes of total runtime, used by bench/main.exe. *)
let quick_scale = {
  budget_s = 2.0;
  loop_size = 4;
  seeds = [ 1 ];
  input_sizes = [ 1; 2 ];
  controls = [ 0; 1; 2; 5 ];
  configs =
    List.filter
      (fun { Configs.name; _ } ->
         List.mem name
           [ "NATIVE"; "ROP_0.05"; "ROP_0.25"; "ROP_1.00";
             "1VM-IMPall"; "2VM"; "2VM-IMPall"; "3VM-IMPall" ])
      Configs.table2_configs;
}

(* Full scale: the complete 72-function / 15-configuration matrix. *)
let full_scale = {
  budget_s = 20.0;
  loop_size = 5;
  seeds = [ 1; 2; 3 ];
  input_sizes = [ 1; 2; 4; 8 ];
  controls = [ 0; 1; 2; 3; 4; 5 ];
  configs = Configs.table2_configs;
}

let gen_corpus scale ~point_test ~coverage_probes =
  List.concat_map
    (fun control_index ->
       List.concat_map
         (fun input_size ->
            List.map
              (fun seed ->
                 Minic.Randomfuns.generate
                   (Minic.Randomfuns.default_params ~loop_size:scale.loop_size
                      ~seed ~input_size ~control_index ~point_test
                      ~coverage_probes ()))
              scale.seeds)
         scale.input_sizes)
    scale.controls

let budget_of scale =
  { E.default_budget with wall_seconds = scale.budget_s; solver_evals = 80_000 }

(* Cache identity of a scale: every field that changes a cell's value must
   appear here, because "scale_key / cell name" is the cell's address in
   the lib/jobs result cache (the executable-digest salt covers the code
   version). *)
let scale_key s =
  Printf.sprintf "budget=%g/loop=%d/seeds=%s/sizes=%s/controls=%s/nconf=%d"
    s.budget_s s.loop_size
    (String.concat "," (List.map string_of_int s.seeds))
    (String.concat "," (List.map string_of_int s.input_sizes))
    (String.concat "," (List.map string_of_int s.controls))
    (List.length s.configs)

(* Per-cell cost columns appended to every pooled table: worker-side wall
   seconds (or "cache" when the cell came from the lib/jobs result cache)
   and user+system CPU seconds from the worker's Unix.times deltas. *)
let cost_headers = [ "CELL WALL"; "CELL CPU" ]

let cell_cost (r : _ Jobs.Pool.result) =
  [ (if r.Jobs.Pool.cached then "cache"
     else Printf.sprintf "%.2fs" r.Jobs.Pool.time_s);
    Printf.sprintf "%.2fs" (r.Jobs.Pool.utime_s +. r.Jobs.Pool.stime_s) ]

(* Probes reachable natively, by concrete enumeration/sampling. *)
let reachable_probes (t : Minic.Randomfuns.t) =
  let img = Minic.Codegen.compile t.prog in
  let cov_addr = Image.symbol_addr img "__cov" in
  let reached = Hashtbl.create 16 in
  let mem0 = Image.load img in
  let inputs =
    let n = t.params.Minic.Randomfuns.input_size in
    if n <= 2 then
      List.init (1 lsl (8 * n)) Int64.of_int
    else begin
      let rng = Util.Rng.create 4242 in
      List.init 512 (fun _ ->
          Int64.logand (Util.Rng.next64 rng) t.input_mask)
    end
  in
  List.iter
    (fun x ->
       let mem = Machine.Memory.copy mem0 in
       let r = Runner.call ~fuel:10_000_000 ~mem img ~func:"target" ~args:[ x ] in
       if r.Runner.status = Machine.Exec.Halted then
         for k = 0 to t.n_probes - 1 do
           if Machine.Memory.read r.Runner.cpu.Machine.Cpu.mem
                (Int64.add cov_addr (Int64.of_int k)) 1
              <> 0L
           then Hashtbl.replace reached k ()
         done)
    inputs;
  reached

(* --- Table II: secret finding and code coverage under DSE ------------------- *)

type table2_row = {
  t2_config : string;
  t2_found : int;
  t2_total : int;
  t2_avg_time : float;         (* successful attempts only *)
  t2_covered : int;            (* targets with 100% of reachable probes *)
}

let table2 ?(pool = Jobs.Pool.default) ?(scale = quick_scale) () =
  let corpus_g1 = gen_corpus scale ~point_test:true ~coverage_probes:false in
  let corpus_g2 = gen_corpus scale ~point_test:false ~coverage_probes:true in
  let budget = budget_of scale in
  (* one pool job per configuration: the whole corpus sweep for that column
     runs in a worker and comes back as a plain-data row *)
  let row_of ({ Configs.name; obf } : Configs.named) =
    (* G1: secret finding *)
    let found = ref 0 and time_sum = ref 0.0 in
    List.iter
      (fun (t : Minic.Randomfuns.t) ->
         match Configs.apply obf t.prog ~funcs:[ "target" ] with
         | exception Configs.Obfuscation_failed _ -> ()
         | img ->
           let tgt =
             { E.img; func = "target";
               n_inputs = t.params.Minic.Randomfuns.input_size }
           in
           let r = E.dse ~goal:E.G_secret ~budget tgt in
           (match r.E.secret_input with
            | Some _ ->
              incr found;
              time_sum := !time_sum +. r.E.time
            | None -> ()))
      corpus_g1;
    (* G2: coverage *)
    let covered = ref 0 in
    List.iter
      (fun (t : Minic.Randomfuns.t) ->
         match Configs.apply obf t.prog ~funcs:[ "target" ] with
         | exception Configs.Obfuscation_failed _ -> ()
         | img ->
           let reachable = reachable_probes t in
           let tgt =
             { E.img; func = "target";
               n_inputs = t.params.Minic.Randomfuns.input_size }
           in
           let r = E.dse ~goal:E.G_coverage ~budget tgt in
           let all =
             Hashtbl.fold
               (fun k () acc -> acc && Hashtbl.mem r.E.covered k)
               reachable true
           in
           if all && Hashtbl.length reachable > 0 then incr covered)
      corpus_g2;
    { t2_config = name;
      t2_found = !found;
      t2_total = List.length corpus_g1;
      t2_avg_time =
        (if !found = 0 then 0.0 else !time_sum /. float_of_int !found);
      t2_covered = !covered }
  in
  let skey = scale_key scale in
  let results =
    Jobs.Pool.map ~label:"table2" pool
      ~key:(fun (c : Configs.named) ->
          Printf.sprintf "table2/%s/%s" skey c.Configs.name)
      ~f:row_of scale.configs
  in
  let rows =
    List.map2
      (fun ({ Configs.name; _ } : Configs.named) (r : _ Jobs.Pool.result) ->
         match r.Jobs.Pool.outcome with
         | Jobs.Pool.Done row -> row
         | Jobs.Pool.Failed m ->
           { t2_config = name ^ " [failed: " ^ m ^ "]"; t2_found = 0;
             t2_total = 0; t2_avg_time = 0.0; t2_covered = 0 }
         | Jobs.Pool.Timed_out t ->
           { t2_config = Printf.sprintf "%s [timed out %.0fs]" name t;
             t2_found = 0; t2_total = 0; t2_avg_time = 0.0; t2_covered = 0 })
      scale.configs results
  in
  Report.table ~title:"Table II: successful DSE attacks within budget"
    ~headers:
      ([ "CONFIGURATION"; "SECRET FOUND"; "AVG TIME"; "100% COVERAGE" ]
       @ cost_headers)
    (List.map2
       (fun r res ->
          [ r.t2_config;
            Printf.sprintf "%d/%d" r.t2_found r.t2_total;
            (if r.t2_found = 0 then "-" else Printf.sprintf "%.1fs" r.t2_avg_time);
            Printf.sprintf "%d/%d" r.t2_covered r.t2_total ]
          @ cell_cost res)
       rows results);
  rows

(* --- Figure 5 / Table III: clbg overhead and rewriter statistics ------------- *)

type fig5_row = {
  f5_bench : string;
  f5_native_steps : int;
  f5_vm_slowdown : float;              (* 2VM-IMPlast vs native *)
  f5_rop_slowdown : (float * float) list;   (* k, slowdown vs native *)
}

let fig5 ?(pool = Jobs.Pool.default) () =
  let row_of (name, prog, fns, n) =
    let steps_of img =
      (Runner.call_exn ~fuel:2_000_000_000 img ~func:"bench" ~args:[ n ])
        .Runner.steps
    in
    let native = steps_of (Minic.Codegen.compile prog) in
    (* the VM baseline is measured at a smaller size: its slowdown is a
       per-instruction multiplier, so the ratio carries over *)
    let n_vm = List.assoc name Minic.Clbg.vm_args in
    let steps_small img =
      (Runner.call_exn ~fuel:2_000_000_000 img ~func:"bench" ~args:[ n_vm ])
        .Runner.steps
    in
    let native_small = steps_small (Minic.Codegen.compile prog) in
    let vm_ratio =
      float_of_int
        (steps_small
           (Configs.apply (Configs.Vm (2, Vmobf.Imp_last)) prog ~funcs:fns))
      /. float_of_int native_small
    in
    let rop =
      List.map
        (fun k ->
           let img = Configs.apply (Configs.Rop k) prog ~funcs:fns in
           (k, float_of_int (steps_of img) /. float_of_int native))
        Configs.rop_ks
    in
    { f5_bench = name;
      f5_native_steps = native;
      f5_vm_slowdown = vm_ratio;
      f5_rop_slowdown = rop }
  in
  let results =
    Jobs.Pool.map ~label:"fig5" pool
      ~key:(fun (name, _, _, n) -> Printf.sprintf "fig5/%s/n=%Ld" name n)
      ~f:row_of Minic.Clbg.all
  in
  let rows =
    List.map2
      (fun (name, _, _, _) (r : _ Jobs.Pool.result) ->
         match r.Jobs.Pool.outcome with
         | Jobs.Pool.Done row -> row
         | Jobs.Pool.Failed m ->
           { f5_bench = name ^ " [failed: " ^ m ^ "]"; f5_native_steps = 0;
             f5_vm_slowdown = 1.0;
             f5_rop_slowdown = List.map (fun k -> (k, 0.0)) Configs.rop_ks }
         | Jobs.Pool.Timed_out _ ->
           { f5_bench = name ^ " [timed out]"; f5_native_steps = 0;
             f5_vm_slowdown = 1.0;
             f5_rop_slowdown = List.map (fun k -> (k, 0.0)) Configs.rop_ks })
      Minic.Clbg.all results
  in
  Report.table
    ~title:"Figure 5: run-time overhead (slowdown vs native; baseline 2VM-IMPlast)"
    ~headers:
      ([ "BENCHMARK"; "NATIVE STEPS"; "2VM-IMPlast" ]
       @ List.map (fun k -> Printf.sprintf "ROP_%.2f" k) Configs.rop_ks
       @ [ "ROP_1.00/2VM" ] @ cost_headers)
    (List.map2
       (fun r res ->
          [ r.f5_bench; string_of_int r.f5_native_steps;
            Printf.sprintf "%.1fx" r.f5_vm_slowdown ]
          @ List.map (fun (_, s) -> Printf.sprintf "%.1fx" s) r.f5_rop_slowdown
          @ [ Printf.sprintf "%.2f"
                (snd (List.nth r.f5_rop_slowdown 5) /. r.f5_vm_slowdown) ]
          @ cell_cost res)
       rows results);
  rows

type table3_row = {
  t3_bench : string;
  t3_rows : (float * int * int * int * float) list;  (* k, N, A, B, C *)
}

let table3 ?(pool = Jobs.Pool.default) () =
  let row_of (name, prog, fns, _) =
    let per_k =
      List.map
        (fun k ->
           let img = Minic.Codegen.compile prog in
           let r =
             Ropc.Rewriter.rewrite img ~functions:fns
               ~config:(Ropc.Config.rop_k k)
           in
           let n =
             List.fold_left
               (fun acc (_, res) ->
                  match res with
                  | Ok st -> acc + st.Ropc.Rewriter.fs_points
                  | Error _ -> acc)
               0 r.Ropc.Rewriter.funcs
           in
           let a = r.Ropc.Rewriter.total_gadget_uses in
           let b = r.Ropc.Rewriter.unique_gadgets in
           (k, n, a, b, float_of_int a /. float_of_int (max n 1)))
        Configs.rop_ks
    in
    { t3_bench = name; t3_rows = per_k }
  in
  let results =
    Jobs.Pool.map ~label:"table3" pool
      ~key:(fun (name, _, _, _) -> "table3/" ^ name)
      ~f:row_of Minic.Clbg.all
  in
  let rows =
    List.map2
      (fun (name, _, _, _) (r : _ Jobs.Pool.result) ->
         match r.Jobs.Pool.outcome with
         | Jobs.Pool.Done row -> row
         | Jobs.Pool.Failed m ->
           { t3_bench = name ^ " [failed: " ^ m ^ "]";
             t3_rows = List.map (fun k -> (k, 0, 0, 0, 0.0)) Configs.rop_ks }
         | Jobs.Pool.Timed_out _ ->
           { t3_bench = name ^ " [timed out]";
             t3_rows = List.map (fun k -> (k, 0, 0, 0, 0.0)) Configs.rop_ks })
      Minic.Clbg.all results
  in
  Report.table
    ~title:"Table III: rewriter statistics (N program points; A gadget uses; B unique gadgets; C = A/N)"
    ~headers:
      ([ "BENCHMARK"; "N" ]
       @ List.concat_map
           (fun k ->
              [ Printf.sprintf "A@%.2f" k; Printf.sprintf "B@%.2f" k;
                Printf.sprintf "C@%.2f" k ])
           Configs.rop_ks
       @ cost_headers)
    (List.map2
       (fun r res ->
          let n = match r.t3_rows with (_, n, _, _, _) :: _ -> n | [] -> 0 in
          [ r.t3_bench; string_of_int n ]
          @ List.concat_map
              (fun (_, _, a, b, c) ->
                 [ string_of_int a; string_of_int b; Printf.sprintf "%.1f" c ])
              r.t3_rows
          @ cell_cost res)
       rows results);
  rows

let table4 () =
  Report.table ~title:"Table IV: RandomFuns control structures"
    ~headers:[ "CONTROL STRUCTURE"; "DEPTH"; "IFS"; "LOOPS" ]
    (List.map
       (fun (name, ctl) ->
          let rec stats = function
            | Minic.Randomfuns.C_bb _ -> (0, 0, 0)
            | Minic.Randomfuns.C_if (a, b) ->
              let (d1, i1, l1) = stats a and (d2, i2, l2) = stats b in
              (1 + max d1 d2, 1 + i1 + i2, l1 + l2)
            | Minic.Randomfuns.C_for a ->
              let (d, i, l) = stats a in
              (1 + d, i, 1 + l)
          in
          let d, i, l = stats ctl in
          [ name; string_of_int d; string_of_int i; string_of_int l ])
       Minic.Randomfuns.table_iv)

(* --- §VII-A: efficacy of the strengthening transformations ------------------- *)

(* The 1-byte-input target of §VII-A.1. *)
let efficacy_target () =
  Minic.Randomfuns.generate
    (Minic.Randomfuns.default_params ~loop_size:4 ~seed:1 ~input_size:1
       ~control_index:1 ())

(* The TDS rows: one input-7 trace of [t] per encoding. *)
let efficacy_tds (t : Minic.Randomfuns.t) =
  List.map
    (fun (name, obf) ->
       let img = Configs.apply obf t.prog ~funcs:[ "target" ] in
       (name,
        Taint.Tds.run ~fuel:400_000 img ~func:"target" ~n_inputs:1
          ~input:[| 7 |]))
    [ ("native", Configs.Native);
      ("ROP plain", Configs.Rop_full (Ropc.Config.plain ()));
      ("ROP_0 (P1)", Configs.Rop 0.0);
      ("ROP_1.0 (P1+P3)", Configs.Rop 1.0) ]

let efficacy ?(budget_s = 6.0) () =
  let budget = { E.default_budget with wall_seconds = budget_s } in
  let run_se img n =
    let tgt = { E.img; func = "target"; n_inputs = n } in
    E.se ~goal:E.G_secret ~budget tgt
  in
  let t = efficacy_target () in
  let rows = ref [] in
  let add name (r : E.result) =
    rows :=
      [ name;
        (match r.E.secret_input with Some _ -> "found" | None -> "timeout");
        Printf.sprintf "%.2fs" r.E.time;
        string_of_int r.E.stats.E.states ]
      :: !rows
  in
  add "SE native" (run_se (Minic.Codegen.compile t.prog) 1);
  add "SE ROP-P1 (k=0)"
    (run_se (Configs.apply (Configs.Rop 0.0) t.prog ~funcs:[ "target" ]) 1);
  add "SE ROP-P1+P3 (k=1)"
    (run_se (Configs.apply (Configs.Rop 1.0) t.prog ~funcs:[ "target" ]) 1);
  Report.table ~title:"§VII-A.1: SE vs P1/P3 (secret finding)"
    ~headers:[ "TARGET"; "OUTCOME"; "TIME"; "STATES" ]
    (List.rev !rows);
  let tds_rows =
    List.map
      (fun (name, (s : Taint.Tds.result)) ->
         [ name; string_of_int s.Taint.Tds.total;
           string_of_int s.Taint.Tds.n_kept;
           string_of_int s.Taint.Tds.tainted_branches ])
      (efficacy_tds t)
  in
  Report.table
    ~title:"§VII-A.1: TDS simplification (implicit control deps survive P1/P3)"
    ~headers:[ "TARGET"; "TRACE"; "KEPT"; "TAINTED CTRL DEPS" ] tds_rows

(* --- §VII-A.2: ROP-aware attacks --------------------------------------------- *)

let ropaware () =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:4 ~seed:2 ~input_size:1
         ~control_index:5 ())
  in
  let variants =
    [ ("plain", Ropc.Config.plain ());
      ("P2", { (Ropc.Config.plain ()) with Ropc.Config.p2 = true });
      ("P2+conf",
       { (Ropc.Config.plain ()) with
         Ropc.Config.p2 = true; gadget_confusion = true;
         skew_prob = 35; imm_confusion_prob = 50 }) ]
  in
  let rows =
    List.map
      (fun (name, config) ->
         let img0 = Minic.Codegen.compile t.prog in
         let r = Ropc.Rewriter.rewrite img0 ~functions:[ "target" ] ~config in
         let addr, len, blocks =
           match List.assoc "target" r.Ropc.Rewriter.funcs with
           | Ok st ->
             (st.Ropc.Rewriter.fs_chain_addr, st.Ropc.Rewriter.fs_chain_bytes,
              List.length st.Ropc.Rewriter.fs_block_offsets)
           | Error e -> failwith (Ropc.Rewriter.failure_to_string e)
         in
         let dis =
           Ropaware.Ropdissector.analyze r.Ropc.Rewriter.image ~chain_addr:addr
             ~chain_len:len
         in
         let guess =
           Ropaware.Ropdissector.gadget_guess ~stride:1 r.Ropc.Rewriter.image
             ~chain_addr:addr ~chain_len:len
         in
         let memu =
           Ropaware.Ropmemu.explore r.Ropc.Rewriter.image ~func:"target"
             ~args:[ 5L ]
         in
         [ name;
           string_of_int blocks;
           string_of_int (Hashtbl.length dis.Ropaware.Ropdissector.blocks);
           string_of_int dis.Ropaware.Ropdissector.unresolved;
           Printf.sprintf "%d/%d" memu.Ropaware.Ropmemu.faulted_traces
             memu.Ropaware.Ropmemu.traces;
           Printf.sprintf "%d (%d/KB)" guess.Ropaware.Ropdissector.candidates
             (guess.Ropaware.Ropdissector.candidates * 1024 / max len 1) ])
      variants
  in
  Report.table
    ~title:"§VII-A.2: ROP-aware attacks (ROPDissector blocks, ROPMEMU faults, gadget guessing)"
    ~headers:
      [ "VARIANT"; "TRUE BLOCKS"; "DIS. BLOCKS"; "UNRESOLVED"; "MEMU FAULTS";
        "GUESS CANDIDATES" ]
    rows

(* --- ROPfuscator layer matrix: robustness x overhead -------------------------- *)

(* Layer combinations (opaque constants / instruction hiding / per-function
   config) against the attacker battery, with run-time and image-size
   overhead columns.  One pool job per combination; cells carry only plain
   data so a --jobs run renders byte-identically to a serial one. *)

type layers_row = {
  ly_config : string;
  ly_cells : string list;
}

let layer_combos ~seed : (string * Ropc.Config.t option) list =
  [ ("NATIVE", None);
    ("ROP_0.5", Some (Ropc.Config.rop_k ~seed 0.5));
    ("ROP_0.5+OC", Some (Ropc.Config.rop_k ~seed ~opaque:true 0.5));
    ("ROP_0.5+IH", Some (Ropc.Config.rop_k ~seed ~hiding:true 0.5));
    ("ROP_0.5+OC+IH",
     Some (Ropc.Config.rop_k ~seed ~opaque:true ~hiding:true 0.5));
    ("ROP_0.5+OC+IH+PF",
     Some (Ropc.Config.rop_k ~seed ~opaque:true ~hiding:true ~pf:true 0.5)) ]

let layers ?(pool = Jobs.Pool.default) ?(budget_s = 3.0) ?(seed = 1) () =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:4 ~seed:1 ~input_size:1
         ~control_index:1 ())
  in
  (* Attack cells report only the found/resisted outcome, not wall times or
     state counts: a --jobs run must render byte-identically to a serial
     one, and under this budget the outcomes have enormous margins (native
     finds the secret in well under a second; a rewritten path alone costs
     minutes of symbolic stepping — opaque recoveries in particular drag
     P1-array loads through every expression). *)
  let budget = { E.default_budget with wall_seconds = budget_s } in
  let row_of (name, config) =
    let native = Minic.Codegen.compile t.prog in
    let native_steps =
      (Runner.call_exn ~fuel:1_000_000_000 native ~func:"target" ~args:[ 7L ])
        .Runner.steps
    in
    let native_bytes = String.length (Image.serialize native) in
    let img, ropstats =
      match config with
      | None -> (native, None)
      | Some config ->
        let r = Ropc.Rewriter.rewrite native ~functions:[ "target" ] ~config in
        (match List.assoc "target" r.Ropc.Rewriter.funcs with
         | Ok st -> (r.Ropc.Rewriter.image, Some st)
         | Error e -> failwith (Ropc.Rewriter.failure_to_string e))
    in
    let tgt = { E.img; func = "target"; n_inputs = 1 } in
    let fmt (r : E.result) =
      match r.E.secret_input with
      | Some _ -> "found"
      | None -> "resisted"
    in
    let se = E.se ~goal:E.G_secret ~budget tgt in
    let dse = E.dse ~goal:E.G_secret ~budget tgt in
    let tds =
      Taint.Tds.run ~fuel:400_000 img ~func:"target" ~n_inputs:1
        ~input:[| 7 |]
    in
    let ropaware_cell =
      match ropstats with
      | None -> "-"
      | Some st ->
        let dis =
          Ropaware.Ropdissector.analyze img
            ~chain_addr:st.Ropc.Rewriter.fs_chain_addr
            ~chain_len:st.Ropc.Rewriter.fs_chain_bytes
        in
        Printf.sprintf "%d blk, %d unres"
          (Hashtbl.length dis.Ropaware.Ropdissector.blocks)
          dis.Ropaware.Ropdissector.unresolved
    in
    let steps =
      (Runner.call_exn ~fuel:1_000_000_000 img ~func:"target" ~args:[ 7L ])
        .Runner.steps
    in
    let bytes = String.length (Image.serialize img) in
    { ly_config = name;
      ly_cells =
        [ fmt se; fmt dse;
          Printf.sprintf "%d/%d" tds.Taint.Tds.tainted_branches
            tds.Taint.Tds.n_kept;
          ropaware_cell;
          Printf.sprintf "%.1fx"
            (float_of_int steps /. float_of_int native_steps);
          Printf.sprintf "%.2fx"
            (float_of_int bytes /. float_of_int native_bytes) ] }
  in
  let combos = layer_combos ~seed in
  let results =
    Jobs.Pool.map ~label:"layers" pool
      ~key:(fun (name, _) ->
          Printf.sprintf "layers/seed=%d/budget=%g/%s" seed budget_s name)
      ~f:row_of combos
  in
  let rows =
    List.map2
      (fun (name, _) (r : _ Jobs.Pool.result) ->
         match r.Jobs.Pool.outcome with
         | Jobs.Pool.Done row -> row
         | Jobs.Pool.Failed m ->
           { ly_config = name ^ " [failed: " ^ m ^ "]";
             ly_cells = [ "-"; "-"; "-"; "-"; "-"; "-" ] }
         | Jobs.Pool.Timed_out tmo ->
           { ly_config = Printf.sprintf "%s [timed out %.0fs]" name tmo;
             ly_cells = [ "-"; "-"; "-"; "-"; "-"; "-" ] })
      combos results
  in
  Report.table
    ~title:
      "ROPfuscator layers: attack robustness x overhead (OC opaque \
       constants, IH instruction hiding, PF per-function config)"
    ~headers:
      ([ "CONFIGURATION"; "SE"; "DSE"; "TAINTED/KEPT"; "ROP-AWARE";
         "STEP OVERHEAD"; "SIZE OVERHEAD" ]
       @ cost_headers)
    (List.map2 (fun r res -> (r.ly_config :: r.ly_cells) @ cell_cost res)
       rows results);
  rows

(* --- §VII-C1: deployability coverage ------------------------------------------ *)

let coverage () =
  let img = Minic.Corpus.compile () in
  let r =
    Ropc.Rewriter.rewrite img ~functions:Minic.Corpus.all_names
      ~config:(Ropc.Config.plain ())
  in
  let classify = Hashtbl.create 4 in
  let ok = ref 0 in
  List.iter
    (fun (_, res) ->
       match res with
       | Ok _ -> incr ok
       | Error e ->
         let key =
           match e with
           | Ropc.Rewriter.F_cfg -> "cfg-reconstruction"
           | Ropc.Rewriter.F_register_pressure _ -> "register-pressure"
           | Ropc.Rewriter.F_unsupported _ -> "unsupported-instruction"
           | Ropc.Rewriter.F_too_small -> "too-small"
         in
         Hashtbl.replace classify key
           (1 + Option.value (Hashtbl.find_opt classify key) ~default:0))
    r.Ropc.Rewriter.funcs;
  let total = List.length r.Ropc.Rewriter.funcs in
  Report.table ~title:"§VII-C1: corpus rewrite coverage"
    ~headers:[ "OUTCOME"; "FUNCTIONS" ]
    ([ [ "rewritten";
         Printf.sprintf "%d/%d (%.1f%%)" !ok total
           (100.0 *. float_of_int !ok /. float_of_int total) ] ]
     @ Hashtbl.fold
         (fun k v acc -> [ "failed: " ^ k; string_of_int v ] :: acc)
         classify []);
  (!ok, total)

(* --- §VII-C3: base64 case study ------------------------------------------------ *)

let casestudy ?(pool = Jobs.Pool.default) ?(budget_s = 10.0) () =
  let prog = Minic.Programs.base64_program () in
  let funcs = [ "b64_check"; "b64_encode" ] in
  let budget = { E.default_budget with wall_seconds = budget_s } in
  let attack ~toa img =
    let tgt = { E.img; func = "b64_check"; n_inputs = 6 } in
    E.dse ~toa ~goal:E.G_secret ~budget tgt
  in
  let row_of (name, obf) =
    match Configs.apply obf prog ~funcs with
    | exception Configs.Obfuscation_failed m ->
      [ name; "rewrite failed: " ^ m; "-"; "-" ]
    | img ->
      let conc = attack ~toa:false img in
      let toa = attack ~toa:true img in
      let fmt (r : E.result) =
        match r.E.secret_input with
        | Some _ -> Printf.sprintf "found %.1fs" r.E.time
        | None -> Printf.sprintf "timeout (%d paths)" r.E.stats.E.states
      in
      [ name; fmt conc; fmt toa;
        string_of_int
          (Runner.call_exn ~fuel:1_000_000_000 img ~func:"b64_check"
             ~args:[ Minic.Programs.secret_arg ]).Runner.steps ]
  in
  let cells =
    [ ("native", Configs.Native);
      ("ROP_0 (P1)", Configs.Rop 0.0);
      ("ROP_0.25", Configs.Rop 0.25);
      ("2VM-IMPlast", Configs.Vm (2, Vmobf.Imp_last)) ]
  in
  let results =
    Jobs.Pool.map ~label:"casestudy" pool
      ~key:(fun (name, _) ->
          Printf.sprintf "casestudy/budget=%g/%s" budget_s name)
      ~f:row_of cells
  in
  let rows =
    List.map2
      (fun (name, _) (r : _ Jobs.Pool.result) ->
         (match r.Jobs.Pool.outcome with
          | Jobs.Pool.Done row -> row
          | Jobs.Pool.Failed m -> [ name; "pool failure: " ^ m; "-"; "-" ]
          | Jobs.Pool.Timed_out t ->
            [ name; Printf.sprintf "pool timeout %.0fs" t; "-"; "-" ])
         @ cell_cost r)
      cells results
  in
  Report.table
    ~title:"§VII-C3: base64 case study (DSE memory models; 6-byte secret)"
    ~headers:
      ([ "CONFIG"; "DSE concretizing"; "DSE per-page ToA"; "RUN STEPS" ]
       @ cost_headers)
    rows

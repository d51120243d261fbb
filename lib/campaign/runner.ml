(* Distributed attack-campaign runner.

   Sweeps a Grid.t over a Jobs.Pool: one pool job per cell (attacker x
   configuration x budget x target), each generating its RandomFuns target,
   applying the obfuscation, and running the attack engine with the cell's
   deterministic budget.  Results flow back as plain data and are
   aggregated into crossover curves — attack success as a function of
   budget, one curve per (attacker, configuration).

   Resumability: cells are cached in a lib/jobs content-addressed store
   keyed by [Grid.cell_key].  A run killed by SIGINT keeps every completed
   cell; re-running with [resume = true] serves those from the cache and
   computes only the remainder.  Because each cell is a pure function of
   its key (eval/state budgets, [Util.Rng.of_key] seeding, no wall-clock
   dependence in any artifact field), the resumed artifact is byte-identical
   to an uninterrupted run's — test_campaign.ml holds the runner to that.

   The solver memo (Solver.Memo) is created fresh per cell: a memo shared
   across cells could let one cell's cached model pick another cell's DSE
   witness, making results depend on execution order and breaking both
   serial-equals-parallel and resume determinism.  Pointing [solver_cache]
   at a directory opts into cross-cell sharing for throughput work where
   that trade is acceptable. *)

module E = Symex.Engine
module Solver = Symex.Solver

type cell_result = {
  cr_attacker : string;
  cr_config : string;
  cr_budget : string;
  cr_target : string;
  cr_solver_evals_budget : int;
  cr_outcome : string;         (* found | timeout | obf-failed | failed: m *)
  cr_found : bool;
  cr_states : int;
  cr_instrs : int;
  cr_evals : int;              (* solver evaluations actually spent *)
  cr_memo_hits : int;          (* per-cell solver memo *)
  cr_memo_stores : int;
}

type opts = {
  jobs : int;
  cache_dir : string;
  resume : bool;               (* false: clear the cell cache first *)
  out_dir : string;
  manifest : Jobs.Manifest.t option;
  progress : bool;
  solver_cache : string option;(* cross-cell on-disk solver memo (opt-in) *)
  wall_safety_s : float;       (* per-cell wall net; never the binding limit *)
  cache_max_bytes : int option;(* prune the cell cache to this after the run *)
}

let default_opts =
  { jobs = 1; cache_dir = "_campaign_cache"; resume = false;
    out_dir = "_campaign"; manifest = None; progress = false;
    solver_cache = None; wall_safety_s = 120.0; cache_max_bytes = None }

(* --- one cell ---------------------------------------------------------------- *)

let run_cell ~wall_safety_s ~solver_cache ~key (cl : Grid.cell) =
  let { Grid.cl_attacker = atk; cl_config = conf; cl_budget = bp;
        cl_target = tg } = cl in
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:tg.Grid.tg_loop
         ~seed:tg.Grid.tg_seed ~input_size:tg.Grid.tg_input_size
         ~control_index:tg.Grid.tg_control ~point_test:true ())
  in
  let base =
    { cr_attacker = atk.Grid.atk_name;
      cr_config = conf.Harness.Configs.name;
      cr_budget = bp.Grid.bp_name;
      cr_target = tg.Grid.tg_name;
      cr_solver_evals_budget = bp.Grid.bp_solver_evals;
      cr_outcome = "timeout"; cr_found = false;
      cr_states = 0; cr_instrs = 0; cr_evals = 0;
      cr_memo_hits = 0; cr_memo_stores = 0 }
  in
  match Harness.Configs.apply conf.Harness.Configs.obf t.Minic.Randomfuns.prog
          ~funcs:[ "target" ] with
  | exception Harness.Configs.Obfuscation_failed m ->
    { base with cr_outcome = "obf-failed: " ^ m }
  | img ->
    let budget =
      { E.default_budget with
        E.wall_seconds = wall_safety_s;
        max_states = bp.Grid.bp_max_states;
        max_instrs = bp.Grid.bp_max_instrs;
        path_fuel = bp.Grid.bp_max_instrs;
        solver_evals = bp.Grid.bp_solver_evals;
        total_solver_evals = bp.Grid.bp_total_evals;
        portfolio = atk.Grid.atk_portfolio }
    in
    let tgt =
      { E.img; func = "target"; n_inputs = tg.Grid.tg_input_size }
    in
    (* schedule-independent randomness: the engine seed comes from the cell
       key, never from where in the run the cell executes *)
    let seed =
      Int64.to_int
        (Int64.logand
           (Util.Rng.next64 (Util.Rng.of_key ~seed:0 key))
           0x3FFFFFFFL)
    in
    let memo = Solver.Memo.create ?dir:solver_cache () in
    Solver.set_memo (Some memo);
    Fun.protect ~finally:(fun () -> Solver.set_memo None) @@ fun () ->
    let run = match atk.Grid.atk_kind with `Dse -> E.dse | `Se -> E.se in
    let r =
      run ~toa:atk.Grid.atk_toa ~seed ~goal:E.G_secret ~budget tgt
    in
    { base with
      cr_outcome = (if r.E.secret_input <> None then "found" else "timeout");
      cr_found = r.E.secret_input <> None;
      cr_states = r.E.stats.E.states;
      cr_instrs = r.E.stats.E.instrs;
      cr_evals = r.E.stats.E.solver.Solver.evals;
      cr_memo_hits = memo.Solver.Memo.hits;
      cr_memo_stores = memo.Solver.Memo.stores }

(* --- artifacts ---------------------------------------------------------------

   Only deterministic fields appear in the artifacts (no wall times: those
   live in the manifest), so the files admit byte-for-byte comparison
   between fresh, resumed, serial, and parallel runs.  One caveat: if a
   cell is slow enough that the per-cell wall safety net fires before its
   deterministic budgets do (heavy cells on a heavily loaded box), the
   cells.csv evals/memo columns reflect where the net cut the search; the
   verdict columns and the crossover artifacts — built from found/targets
   alone — stay byte-identical regardless. *)

let cells_csv results =
  Harness.Report.csv
    ~headers:
      [ "attacker"; "config"; "budget"; "target"; "solver_evals_budget";
        "outcome"; "found"; "states"; "instrs"; "evals"; "memo_hits";
        "memo_stores" ]
    (List.map
       (fun r ->
          [ r.cr_attacker; r.cr_config; r.cr_budget; r.cr_target;
            string_of_int r.cr_solver_evals_budget; r.cr_outcome;
            (if r.cr_found then "1" else "0");
            string_of_int r.cr_states; string_of_int r.cr_instrs;
            string_of_int r.cr_evals; string_of_int r.cr_memo_hits;
            string_of_int r.cr_memo_stores ])
       results)

(* curve point: (attacker, config) x budget -> success fraction *)
type point = {
  pt_budget : string;
  pt_evals : int;
  pt_found : int;
  pt_targets : int;
}

type curve = {
  cv_attacker : string;
  cv_config : string;
  cv_points : point list;
}

let crossover (g : Grid.t) results =
  List.concat_map
    (fun (a : Grid.attacker) ->
       List.map
         (fun (c : Harness.Configs.named) ->
            { cv_attacker = a.Grid.atk_name;
              cv_config = c.Harness.Configs.name;
              cv_points =
                List.map
                  (fun (b : Grid.budget_pt) ->
                     let cells =
                       List.filter
                         (fun r ->
                            r.cr_attacker = a.Grid.atk_name
                            && r.cr_config = c.Harness.Configs.name
                            && r.cr_budget = b.Grid.bp_name)
                         results
                     in
                     { pt_budget = b.Grid.bp_name;
                       pt_evals = b.Grid.bp_solver_evals;
                       pt_found =
                         List.length (List.filter (fun r -> r.cr_found) cells);
                       pt_targets = List.length cells })
                  g.Grid.budgets })
         g.Grid.configs)
    g.Grid.attackers

let crossover_csv curves =
  Harness.Report.csv
    ~headers:
      [ "attacker"; "config"; "budget"; "solver_evals"; "found"; "targets";
        "fraction" ]
    (List.concat_map
       (fun cv ->
          List.map
            (fun p ->
               [ cv.cv_attacker; cv.cv_config; p.pt_budget;
                 string_of_int p.pt_evals; string_of_int p.pt_found;
                 string_of_int p.pt_targets;
                 Printf.sprintf "%.3f"
                   (float_of_int p.pt_found
                    /. float_of_int (max 1 p.pt_targets)) ])
            cv.cv_points)
       curves)

let crossover_json (g : Grid.t) curves =
  let module J = Obs.Json in
  let point p =
    J.Obj
      [ ("budget", J.Str p.pt_budget); ("solver_evals", J.int p.pt_evals);
        ("found", J.int p.pt_found); ("targets", J.int p.pt_targets) ]
  in
  let curve cv =
    J.Obj
      [ ("attacker", J.Str cv.cv_attacker); ("config", J.Str cv.cv_config);
        ("points", J.Arr (List.map point cv.cv_points)) ]
  in
  J.to_string
    (J.Obj
       [ ("schema", J.Str "campaign_crossover/v1"); ("grid", J.Str g.Grid.g_name);
         ("cells", J.int (Grid.size g)); ("curves", J.Arr (List.map curve curves)) ])
  ^ "\n"

(* --- the run ------------------------------------------------------------------ *)

type summary = {
  s_results : cell_result list;
  s_cells : int;
  s_found : int;
  s_cache_hits : int;
  s_failed : int;
}

let m_cells = Obs.Metrics.counter "campaign.cells"
let m_found = Obs.Metrics.counter "campaign.found"
let m_cell_failures = Obs.Metrics.counter "campaign.cell_failures"

let run ?(opts = default_opts) (g : Grid.t) =
  if not opts.resume then Jobs.Cache.clear ~dir:opts.cache_dir ();
  let cache = Jobs.Cache.create ~dir:opts.cache_dir () in
  let cells = Grid.cells g in
  let pool =
    { Jobs.Pool.default with
      Jobs.Pool.jobs = opts.jobs;
      cache = Some cache;
      manifest = opts.manifest;
      progress = opts.progress }
  in
  let results =
    Jobs.Pool.map ~label:("campaign/" ^ g.Grid.g_name) pool
      ~key:(Grid.cell_key g)
      ~f:(fun cl ->
          run_cell ~wall_safety_s:opts.wall_safety_s
            ~solver_cache:opts.solver_cache ~key:(Grid.cell_key g cl) cl)
      cells
  in
  let rows =
    List.map2
      (fun cl (r : _ Jobs.Pool.result) ->
         let { Grid.cl_attacker = a; cl_config = c; cl_budget = b;
               cl_target = t } = cl in
         let placeholder outcome =
           { cr_attacker = a.Grid.atk_name;
             cr_config = c.Harness.Configs.name;
             cr_budget = b.Grid.bp_name;
             cr_target = t.Grid.tg_name;
             cr_solver_evals_budget = b.Grid.bp_solver_evals;
             cr_outcome = outcome; cr_found = false; cr_states = 0;
             cr_instrs = 0; cr_evals = 0; cr_memo_hits = 0;
             cr_memo_stores = 0 }
         in
         match r.Jobs.Pool.outcome with
         | Jobs.Pool.Done row -> row
         | Jobs.Pool.Failed m -> placeholder ("failed: " ^ m)
         | Jobs.Pool.Timed_out s ->
           placeholder (Printf.sprintf "pool-timeout: %.0fs" s))
      cells results
  in
  let curves = crossover g rows in
  Harness.Report.write_file
    (Filename.concat opts.out_dir "cells.csv") (cells_csv rows);
  Harness.Report.write_file
    (Filename.concat opts.out_dir "crossover.csv") (crossover_csv curves);
  Harness.Report.write_file
    (Filename.concat opts.out_dir "crossover.json") (crossover_json g curves);
  let found = List.length (List.filter (fun r -> r.cr_found) rows) in
  let failed =
    List.length
      (List.filter (fun r -> not (r.cr_found || r.cr_outcome = "timeout"))
         rows)
  in
  let hits =
    List.length (List.filter (fun r -> r.Jobs.Pool.cached) results)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add m_cells (List.length rows);
    Obs.Metrics.add m_found found;
    Obs.Metrics.add m_cell_failures failed
  end;
  (* Bound the cell cache after the run: LRU-by-mtime, so a later --resume
     of the *same* grid keeps its hot cells as long as they fit. *)
  (match opts.cache_max_bytes with
   | Some mb -> ignore (Jobs.Cache.prune ~max_bytes:mb cache)
   | None -> ());
  { s_results = rows;
    s_cells = List.length rows;
    s_found = found;
    s_cache_hits = hits;
    s_failed = failed }

(* Console crossover summary: one row per curve, fractions across the
   budget ladder. *)
let print_summary (g : Grid.t) (s : summary) =
  let curves = crossover g s.s_results in
  Harness.Report.table
    ~title:
      (Printf.sprintf "Campaign %s: secrets found / targets per budget"
         g.Grid.g_name)
    ~headers:
      ([ "ATTACKER"; "CONFIG" ]
       @ List.map (fun (b : Grid.budget_pt) -> b.Grid.bp_name)
           g.Grid.budgets)
    (List.map
       (fun cv ->
          [ cv.cv_attacker; cv.cv_config ]
          @ List.map
              (fun p -> Printf.sprintf "%d/%d" p.pt_found p.pt_targets)
              cv.cv_points)
       curves)

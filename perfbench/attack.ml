(* attack-dse: the attacker's cost (Table II, §VII), in process.  Concolic
   execution (Symex.Engine.dse, goal G_secret) attacks RandomFuns targets
   with a 1-byte input, natively and under two rewrites.  The budget is a
   count of paths and solver evaluations; the wall budget is set far above
   any cell's run time so it never binds, and every cell's outcome repeats
   exactly.  Each cell gets a fresh solver memo, as a campaign cell does.
   Every secret the attack reports is confirmed by a concrete Runner.call
   of the same image.

   The attacked set is fixed, as the paper's RandomFuns corpus is (seeds
   1-3): one cell's cost swings several-fold with the target's and the
   engine's seeds, so a seed-drawn set would need far more cells than fit
   in a run to repeat within bounds.  The workload seed orders the cells of
   each pass.  Control structures 0 and 1 (no nested loops) keep a pass
   near two seconds; the nested-loop ones cost seconds per cell. *)

module M = Measure
module E = Symex.Engine
module Sv = Symex.Solver

let configs = [ "native"; "rop0.25"; "rop0.5+oc" ]

(* Two targets per Table IV control structure. *)
let controls = [ 0; 1 ]
let seeds = [ 1; 2; 3 ]

let budget =
  { E.default_budget with
    E.wall_seconds = 600.0;
    max_states = 8;
    total_solver_evals = 2_000 }

type cell = {
  c_name : string;
  c_img : Image.t;
  c_size_x : float;               (* serialized size over the native image's *)
}

let build acc =
  List.concat_map
    (fun (ctrl, tseed) ->
       let t =
         Minic.Randomfuns.generate
           (Minic.Randomfuns.default_params ~seed:tseed ~input_size:1 ~loop_size:3
              ~control_index:ctrl ())
       in
       let img = M.compile acc (fun () -> Minic.Codegen.compile t.Minic.Randomfuns.prog) in
       let ctx = M.prepare acc img ~functions:[ "target" ] in
       let native_bytes = String.length (M.serialize acc img) in
       List.map
         (fun cfg ->
            let img =
              if cfg = "native" then img
              else
                let config = Result.get_ok (Serve.Oneshot.config_of_name ~seed:1 cfg) in
                (M.rewrite acc ctx ~config).Ropc.Rewriter.image
            in
            let bytes = if cfg = "native" then native_bytes
              else String.length (M.serialize acc img) in
            { c_name = Printf.sprintf "ctrl%d.seed%d/%s" ctrl tseed cfg; c_img = img;
              c_size_x = float_of_int bytes /. float_of_int native_bytes })
         configs)
    (List.concat_map (fun c -> List.map (fun s -> (c, s)) seeds) controls)

type outcome = {
  o_secret : int option;          (* the input byte the attack reports *)
  o_states : int;
  o_instrs : int;
  o_evals : int;
  o_memo_hits : int;
  o_ms : float;                   (* wall time of the attack *)
}

let attack c =
  let memo = Sv.Memo.create () in
  Sv.set_memo (Some memo);
  Fun.protect ~finally:(fun () -> Sv.set_memo None) @@ fun () ->
  let r, dt =
    M.timed (fun () ->
        E.dse ~goal:E.G_secret ~budget
          { E.img = c.c_img; func = "target"; n_inputs = 1 })
  in
  { o_secret = Option.map (fun m -> m.(0)) r.E.secret_input;
    o_states = r.E.stats.E.states;
    o_instrs = r.E.stats.E.instrs;
    o_evals = r.E.stats.E.solver.Sv.evals;
    o_memo_hits = memo.Sv.Memo.hits;
    o_ms = dt *. 1000.0 }

(* The concrete check: the reported input makes the target return 1. *)
let confirm c secret =
  let r =
    M.span "machine.confirm" (fun () ->
        Runner.call c.c_img ~func:"target" ~args:[ Int64.of_int secret ])
  in
  (r.Runner.status = Machine.Exec.Halted, r.Runner.rax, r.Runner.steps)

let run ~seed ~seconds ~traced ~must_fail : M.report =
  let fs = M.failures () in
  (* set-up takes well under a second; fifteen of them span more than one
     of the host's speed phases *)
  let built = ref [] in
  let setup_times =
    List.init 15 (fun _ -> snd (M.timed (fun () -> built := build (M.rewrites ()))))
  in
  let cells = !built in
  (* the discarded set-ups' garbage is not the passes' to collect *)
  Gc.compact ();
  let attempted = ref 0 in
  let ledger = M.ledger () in
  (* the must-fail leg expects the wrong return value from the first
     confirmation it makes *)
  let corrupt = ref must_fail in
  let last = Hashtbl.create 64 in
  let measure seconds =
    let lat = ref [] in
    let passes =
      M.repeat ~seconds (fun pi ->
          let order = M.shuffle ~seed pi cells in
          let results, wall =
            M.timed (fun () ->
                List.map
                  (fun c ->
                     let o = attack c in
                     lat := (c.c_name, o.o_ms) :: !lat;
                     (c, o))
                  order)
          in
          let confirm_steps = ref 0 in
          List.iter
            (fun (c, o) ->
               incr attempted;
               Hashtbl.replace last c.c_name o;
               match o.o_secret with
               | None -> ()
               | Some s ->
                 let halted, rax, steps = confirm c s in
                 confirm_steps := !confirm_steps + steps;
                 let want = if !corrupt then 2L else 1L in
                 corrupt := false;
                 if not (halted && rax = want) then
                   M.fail fs "%s: reported secret %d returns %Ld, expected %Ld"
                     c.c_name s rax want)
            results;
          let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
          M.check_counts fs ledger
            [ ("symex.states", sum (fun o -> o.o_states));
              ("symex.instrs", sum (fun o -> o.o_instrs));
              ("symex.secrets_found",
               sum (fun o -> if o.o_secret = None then 0 else 1));
              ("solver.evals", sum (fun o -> o.o_evals));
              ("solver.memo_hits", sum (fun o -> o.o_memo_hits));
              ("machine.steps", !confirm_steps) ];
          (wall, List.length results))
    in
    (passes, !lat)
  in
  let untraced_s = if traced then seconds /. 2.0 else seconds in
  let passes, lat = measure untraced_s in
  let e2e =
    { M.setups = setup_times; passes; latencies_ms = lat; conns = 1;
      rss_mb = M.peak_rss_mb (Unix.getpid ()) }
  in
  (* per config: secrets found, paths and solver evaluations spent *)
  let table =
    Printf.sprintf "%-10s %7s %8s %10s %12s %10s" "config" "found" "states" "instrs"
      "solver evals" "wall ms"
    :: List.map
      (fun cfg ->
         let os =
           List.filter_map
             (fun c ->
                if Filename.basename c.c_name = cfg then Hashtbl.find_opt last c.c_name
                else None)
             cells
         in
         let sum f = List.fold_left (fun acc o -> acc + f o) 0 os in
         Printf.sprintf "%-10s %3d/%-3d %8d %10d %12d %10.1f" cfg
           (sum (fun o -> if o.o_secret = None then 0 else 1))
           (List.length os) (sum (fun o -> o.o_states)) (sum (fun o -> o.o_instrs))
           (sum (fun o -> o.o_evals))
           (List.fold_left (fun acc o -> acc +. o.o_ms) 0.0 os))
      configs
  in
  if not traced then
    { M.attempted = !attempted; fs; e2e; traced_e2e = None;
      counts = M.counts ledger; layers = []; lines = table }
  else begin
    M.start_tracing ();
    let acc = M.rewrites () in
    ignore (build acc);
    let tpasses, tlat = measure (seconds /. 2.0) in
    let traced_e2e = { e2e with M.passes = tpasses; latencies_ms = tlat } in
    let sums = M.span_sums () in
    let count k = float_of_int (List.assoc k (M.counts ledger)) in
    let confirm = M.span_get sums "machine.confirm" in
    let layers =
      let rop = List.filter (fun c -> Filename.basename c.c_name <> "native") cells in
      M.rewrite_layers sums acc
      @ [ ("image.size_x", M.geomean (List.map (fun c -> c.c_size_x) rop));
          ("symex.dse_ms", (M.span_get sums "symex.dse").M.self_ms
                           /. float_of_int (max 1 (M.span_get sums "symex.dse").M.calls));
          ("symex.instrs", count "symex.instrs");
          ("symex.states", count "symex.states");
          ("symex.secrets_found", count "symex.secrets_found");
          ("solver.evals", count "solver.evals");
          ("solver.queries",
           float_of_int (M.counter "symex.solver.queries") /. float_of_int (List.length tpasses));
          ("solver.memo_hits", count "solver.memo_hits");
          ("machine.exec_ms", confirm.M.total_ms /. float_of_int (max 1 confirm.M.calls));
          ("machine.steps", count "machine.steps") ]
    in
    { M.attempted = !attempted; fs; e2e; traced_e2e = Some traced_e2e;
      counts = M.counts ledger; layers; lines = table }
  end

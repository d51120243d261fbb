(* fig5-run: the paper's Fig. 5 run-time overhead, in process on one
   thread.  The ten CLBG programs run at their default arguments natively
   and under three rewrites whose images are built during set-up, so the
   fast engine in lib/machine does all the timed work.  Every result is
   checked against Minic.Interp, which evaluates the source program and
   shares no code with the compiler or the rewriter under test.

   The rewrites use config seed 1, as the paper's figure uses one image per
   program and config: retired steps under rop0.25 swing by tens of percent
   with the seed, which would swamp the run-to-run bounds.  The workload
   seed orders the executions of each pass. *)

module M = Measure

let configs = [ "rop0.25"; "rop1.0"; "rop0.5+oc+ih" ]

let fuel = 2_000_000_000

type exe = {
  x_prog : string;
  x_config : string;              (* "native" or a config_matrix name *)
  x_img : Image.t;
  x_arg : int64;
  x_bytes : int;                  (* serialized image size *)
}

let name x = x.x_prog ^ "/" ^ x.x_config

(* Compile, prepare and rewrite every program: the executions of one pass. *)
let build acc =
  List.concat_map
    (fun (prog_name, prog, fns, arg) ->
       let img = M.compile acc (fun () -> Minic.Codegen.compile prog) in
       let ctx = M.prepare acc img ~functions:fns in
       let exe config img =
         { x_prog = prog_name; x_config = config; x_img = img; x_arg = arg;
           x_bytes = String.length (M.serialize acc img) }
       in
       exe "native" img
       :: List.map
         (fun cfg ->
            let config =
              Result.get_ok
                (Serve.Oneshot.config_of_name ~seed:1 cfg)
            in
            exe cfg (M.rewrite acc ctx ~config).Ropc.Rewriter.image)
         configs)
    Minic.Clbg.all

type obs = {
  o_setup_s : float;
  o_exec_s : float;
  o_rax : int64;
  o_halted : bool;
  o_steps : int;
  o_dispatches : int;
  o_dm_hits : int;
  o_translated : int;
  o_fused : int;
}

let execute x =
  let t, setup_s =
    M.timed (fun () ->
        M.span "machine.setup" (fun () ->
            Runner.setup x.x_img ~func:"bench" ~args:[ x.x_arg ]))
  in
  let status, exec_s =
    M.timed (fun () -> M.span "machine.exec" (fun () -> Machine.Exec.run ~fuel t))
  in
  let cpu = t.Machine.Exec.cpu in
  { o_setup_s = setup_s; o_exec_s = exec_s;
    o_rax = Machine.Cpu.get cpu X86.Isa.RAX;
    o_halted = status = Machine.Exec.Halted;
    o_steps = cpu.Machine.Cpu.steps;
    o_dispatches = t.Machine.Exec.n_dispatches;
    o_dm_hits = t.Machine.Exec.n_dispatches - t.Machine.Exec.n_dm_misses;
    o_translated = t.Machine.Exec.n_translated;
    o_fused = t.Machine.Exec.n_fused }

let run ~seed ~seconds ~traced ~must_fail : M.report =
  let fs = M.failures () in
  (* reference results from the source-level interpreter, untimed *)
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (prog_name, prog, _, arg) ->
       Hashtbl.replace expected prog_name (Minic.Interp.run prog "bench" [ arg ]))
    Minic.Clbg.all;
  if must_fail then begin
    let prog_name, _, _, _ =
      List.nth Minic.Clbg.all (Util.Rng.int (Util.Rng.create seed) 10)
    in
    Hashtbl.replace expected prog_name
      (Int64.add (Hashtbl.find expected prog_name) 1L)
  end;
  (* set-up takes well under a second; fifteen of them span more than one
     of the host's speed phases *)
  let built = ref [] in
  let setup_times =
    List.init 15 (fun _ -> snd (M.timed (fun () -> built := build (M.rewrites ()))))
  in
  let exes = !built in
  (* the discarded set-ups' garbage is not the passes' to collect *)
  Gc.compact ();
  let attempted = ref 0 in
  let ledger = M.ledger () in
  let last = Hashtbl.create 64 in
  let measure seconds =
    let lat = ref [] and execs = ref [] in
    let passes =
      M.repeat ~seconds (fun pi ->
          let order = M.shuffle ~seed pi exes in
          let results, wall =
            M.timed (fun () -> List.map (fun x -> (x, execute x)) order)
          in
          List.iter
            (fun (x, o) ->
               incr attempted;
               lat := (name x, (o.o_setup_s +. o.o_exec_s) *. 1000.0) :: !lat;
               execs := o :: !execs;
               Hashtbl.replace last (name x) o;
               let want = Hashtbl.find expected x.x_prog in
               if not o.o_halted then M.fail fs "%s: did not halt" (name x)
               else if o.o_rax <> want then
                 M.fail fs "%s: rax %Ld, interpreter %Ld" (name x) o.o_rax want)
            results;
          let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
          M.check_counts fs ledger
            [ ("machine.steps", sum (fun o -> o.o_steps));
              ("machine.dispatches", sum (fun o -> o.o_dispatches));
              ("machine.dm_hits", sum (fun o -> o.o_dm_hits));
              ("machine.blocks_translated", sum (fun o -> o.o_translated));
              ("machine.fused_retires", sum (fun o -> o.o_fused)) ];
          (wall, List.length results))
    in
    (passes, !lat, !execs)
  in
  let untraced_s = if traced then seconds /. 2.0 else seconds in
  let passes, lat, _ = measure untraced_s in
  let e2e =
    { M.setups = setup_times; passes; latencies_ms = lat; conns = 1;
      rss_mb = M.peak_rss_mb (Unix.getpid ()) }
  in
  (* Time/Size table: slowdown in retired steps and size blow-up in
     serialized bytes against the native image, per program x config *)
  let native_of x =
    List.find (fun y -> y.x_prog = x.x_prog && y.x_config = "native") exes
  in
  let steps x = (Hashtbl.find last (name x)).o_steps in
  let rows = List.filter (fun x -> x.x_config <> "native") exes in
  let steps_x x = float_of_int (steps x) /. float_of_int (steps (native_of x)) in
  let size_x x = float_of_int x.x_bytes /. float_of_int (native_of x).x_bytes in
  let table =
    Printf.sprintf "%-12s %12s  %s" "program" "native steps"
      (String.concat "  "
         (List.map (fun c -> Printf.sprintf "%-22s" (c ^ " time/size")) configs))
    :: List.map
      (fun (p, _, _, _) ->
         let find c = List.find (fun x -> x.x_prog = p && x.x_config = c) exes in
         Printf.sprintf "%-12s %12d  %s" p (steps (find "native"))
           (String.concat "  "
              (List.map
                 (fun c ->
                    let x = find c in
                    Printf.sprintf "%-22s"
                      (Printf.sprintf "%7.1fx / %5.1fx" (steps_x x) (size_x x)))
                 configs)))
      Minic.Clbg.all
  in
  if not traced then
    { M.attempted = !attempted; fs; e2e; traced_e2e = None;
      counts = M.counts ledger; layers = []; lines = table }
  else begin
    M.start_tracing ();
    let acc = M.rewrites () in
    ignore (build acc);
    let tpasses, tlat, execs = measure (seconds /. 2.0) in
    let traced_e2e = { e2e with M.passes = tpasses; latencies_ms = tlat } in
    let sums = M.span_sums () in
    let per name n = (M.span_get sums name).M.self_ms /. float_of_int (max 1 n) in
    let n_exec = List.length execs in
    let count k = float_of_int (List.assoc k (M.counts ledger)) in
    let layers =
      M.rewrite_layers sums acc
      @ [ ("image.bytes",
           float_of_int (List.fold_left (fun acc x -> acc + x.x_bytes) 0 rows));
          ("image.size_x", M.geomean (List.map size_x rows));
          ("machine.setup_ms", per "machine.setup" n_exec);
          ("machine.exec_ms", per "machine.exec" n_exec);
          ("machine.ns_per_step",
           (M.span_get sums "machine.exec").M.total_ms *. 1e6
           /. float_of_int
             (List.fold_left (fun acc o -> acc + o.o_steps) 0 execs));
          ("machine.steps", count "machine.steps");
          ("machine.steps_x", M.geomean (List.map steps_x rows));
          ("machine.dispatches", count "machine.dispatches");
          ("machine.blocks_translated", count "machine.blocks_translated");
          ("machine.fused_retires", count "machine.fused_retires");
          ("machine.dm_hit_frac",
           count "machine.dm_hits" /. count "machine.dispatches") ]
    in
    { M.attempted = !attempted; fs; e2e; traced_e2e = Some traced_e2e;
      counts = M.counts ledger; layers; lines = table }
  end

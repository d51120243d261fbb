(* roplint: fixpoint static analysis + translation validation driver.

   Rewrites every built-in program at every Table I / Table II configuration
   and runs the lib/staticanalysis passes over each result: stack
   discipline (native + virtual), translation validation, stealth lint and
   pool-bloat.  Like ropcheck, the matrix is embarrassingly parallel and a
   --jobs run prints byte-identical output to a serial one: workers return
   plain data, the parent renders in matrix order.

     roplint                          # whole corpus x matrix
     roplint --jobs 4                 # same, 4 forked workers
     roplint --program corpus --config rop1.0+gc
     roplint --json report.json       # machine-readable findings report
     roplint --no-transval            # skip the (slower) equivalence pass
     roplint --ropaware               # add attacker-success columns (slow)
     roplint --min-proven 90          # CI gate on the proven-equivalent rate

   Exit status: 1 if any error-severity finding is reported or the
   translation-validation proven rate falls below --min-proven. *)

open Cmdliner
module F = Verify.Finding
module J = Obs.Json
module SA = Staticanalysis

(* Table I/II matrix plus the ROPfuscator layer rows — shared with ropcheck,
   the CLI and the daemon via Serve.Oneshot so names resolve identically. *)
let config_matrix = Serve.Oneshot.config_matrix

let targets () =
  [ ("corpus", Minic.Corpus.compile, Minic.Corpus.all_names);
    ("base64",
     (fun () -> Minic.Codegen.compile (Minic.Programs.base64_program ())),
     [ "b64_check"; "b64_encode" ]) ]
  @ List.map
      (fun (name, prog, fns, _) ->
         (name, (fun () -> Minic.Codegen.compile prog), fns))
      Minic.Clbg.all

(* --- per-cell analysis (runs in a worker) ---------------------------------- *)

(* Attacker ground truth: how much of each chain the ROP-aware static
   attacker recovers, to correlate against the stealth score. *)
type attacker = {
  at_func : string;
  at_true_slots : int;            (* gadget slots actually in the layout *)
  at_blocks : int;                (* dissector-recovered block entries *)
  at_unresolved : int;
  at_guesses : int;               (* byte-scan candidate slots *)
}

type cell = {
  c_errs : int;
  c_warns : int;
  c_out : string;                 (* deterministic stdout block *)
  c_proven : int;
  c_unproven : int;
  c_skipped : int;
  c_fields : (string * J.t) list; (* the cell's JSON members, sans timings *)
  c_timings : J.t;
}

let json_of_report ~tname ~cfg_name (r : SA.Driver.report)
    (attackers : attacker list) =
  let unproven (rg : SA.Transval.region) =
    match rg.SA.Transval.rg_verdict with
    | SA.Transval.Proven _ -> None
    | SA.Transval.Unproven reason ->
      Some
        (J.Obj
           [ ("func", J.Str rg.SA.Transval.rg_func);
             ("addr", J.Str (Printf.sprintf "0x%Lx" rg.SA.Transval.rg_addr));
             ("reason", J.Str reason) ])
  in
  let transval tv =
    J.Obj
      [ ("proven", J.int tv.SA.Transval.tv_proven);
        ("unproven", J.int tv.SA.Transval.tv_unproven);
        ("skipped", J.int (List.length tv.SA.Transval.tv_skipped));
        ("unproven_regions",
         J.Arr (List.filter_map unproven tv.SA.Transval.tv_regions)) ]
  in
  let st = r.SA.Driver.r_stealth in
  let func_score (fs : SA.Stealth.func_score) =
    J.Obj
      [ ("func", J.Str fs.SA.Stealth.fs_name);
        ("score", J.decimals 2 fs.SA.Stealth.fs_score);
        ("slot_frac", J.decimals 4 fs.SA.Stealth.fs_slot_frac);
        ("reuse", J.decimals 4 fs.SA.Stealth.fs_reuse);
        ("clustering", J.decimals 4 fs.SA.Stealth.fs_clustering) ]
  in
  let pb = r.SA.Driver.r_poolbloat in
  let attacker a =
    J.Obj
      [ ("func", J.Str a.at_func); ("true_slots", J.int a.at_true_slots);
        ("blocks", J.int a.at_blocks); ("unresolved", J.int a.at_unresolved);
        ("guesses", J.int a.at_guesses) ]
  in
  [ ("program", J.Str tname); ("config", J.Str cfg_name);
    ("findings", J.Arr (List.map F.to_json r.SA.Driver.r_findings)) ]
  @ J.opt "transval" transval r.SA.Driver.r_transval
  @ [ ("stealth",
       J.Obj
         [ ("ret_density", J.decimals 4 st.SA.Stealth.sl_ret_density);
           ("popret_per_kib", J.decimals 2 st.SA.Stealth.sl_popret_per_kib);
           ("funcs", J.Arr (List.map func_score st.SA.Stealth.sl_funcs)) ]);
      ("poolbloat",
       J.Obj
         [ ("gadgets", J.int pb.SA.Poolbloat.pb_total);
           ("referenced", J.int pb.SA.Poolbloat.pb_referenced);
           ("pool_bytes", J.int pb.SA.Poolbloat.pb_pool_bytes);
           ("live_bytes", J.int pb.SA.Poolbloat.pb_live_bytes);
           ("shrinkable_suffix", J.int pb.SA.Poolbloat.pb_shrinkable_suffix) ]) ]
  @ (if attackers = [] then []
     else [ ("ropaware", J.Arr (List.map attacker attackers)) ])

let lint_one ~verbose ~transval ~ropaware tname cfg_name config build fns =
  let orig = build () in
  let r = Ropc.Rewriter.rewrite orig ~functions:fns ~config in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let rewritten = r.Ropc.Rewriter.image in
  let report = SA.Driver.lint ~transval ~orig ~rewritten audit in
  let attackers =
    if not ropaware then []
    else
      List.map
        (fun (f : Ropc.Audit.func) ->
           let true_slots =
             Array.fold_left
               (fun n (_, s) ->
                  match s with
                  | Ropc.Chain.S_gadget _
                  | Ropc.Chain.S_opaque_dispatch _ -> n + 1
                  | _ -> n)
               0 f.Ropc.Audit.f_layout
           in
           let d =
             Ropaware.Ropdissector.analyze rewritten
               ~chain_addr:f.Ropc.Audit.f_chain_base
               ~chain_len:f.Ropc.Audit.f_chain_len
           in
           let g =
             Ropaware.Ropdissector.gadget_guess ~stride:1 rewritten
               ~chain_addr:f.Ropc.Audit.f_chain_base
               ~chain_len:f.Ropc.Audit.f_chain_len
           in
           { at_func = f.Ropc.Audit.f_name;
             at_true_slots = true_slots;
             at_blocks = Hashtbl.length d.Ropaware.Ropdissector.blocks;
             at_unresolved = d.Ropaware.Ropdissector.unresolved;
             at_guesses = g.Ropaware.Ropdissector.candidates })
        audit.Ropc.Audit.a_funcs
  in
  let findings = report.SA.Driver.r_findings in
  let errs, warns, _ = F.counts findings in
  let proven, unproven, skipped =
    match report.SA.Driver.r_transval with
    | Some tv ->
      (tv.SA.Transval.tv_proven, tv.SA.Transval.tv_unproven,
       List.length tv.SA.Transval.tv_skipped)
    | None -> (0, 0, 0)
  in
  let buf = Buffer.create 512 in
  let header = ref false in
  let head () =
    if not !header then begin
      header := true;
      Printf.bprintf buf "== %s / %s ==\n" tname cfg_name
    end
  in
  if errs > 0 || verbose then begin
    head ();
    Buffer.add_string buf (F.render_report ~verbose findings)
  end;
  if verbose then begin
    head ();
    (match report.SA.Driver.r_transval with
     | Some tv ->
       Printf.bprintf buf "  transval: %d proven, %d unproven, %d skipped\n"
         tv.SA.Transval.tv_proven tv.SA.Transval.tv_unproven
         (List.length tv.SA.Transval.tv_skipped);
       let reasons = Hashtbl.create 8 in
       List.iter
         (fun (_, _, why) ->
            Hashtbl.replace reasons why
              (1 + Option.value ~default:0 (Hashtbl.find_opt reasons why)))
         tv.SA.Transval.tv_skipped;
       List.iter
         (fun (why, n) -> Printf.bprintf buf "    skip %4d  %s\n" n why)
         (List.sort
            (fun (a, _) (b, _) -> compare a b)
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reasons []))
     | None -> ());
    let st = report.SA.Driver.r_stealth in
    (match st.SA.Stealth.sl_funcs with
     | [] -> ()
     | fs ->
       let scores = List.map (fun f -> f.SA.Stealth.fs_score) fs in
       let mean =
         List.fold_left ( +. ) 0.0 scores /. float_of_int (List.length scores)
       in
       Printf.bprintf buf "  stealth: mean %.1f, max %.1f\n" mean
         (List.fold_left max neg_infinity scores));
    let pb = report.SA.Driver.r_poolbloat in
    Printf.bprintf buf "  pool: %d/%d gadgets referenced, %d B shrinkable\n"
      pb.SA.Poolbloat.pb_referenced pb.SA.Poolbloat.pb_total
      pb.SA.Poolbloat.pb_shrinkable_suffix;
    List.iter
      (fun a ->
         Printf.bprintf buf
           "  ropaware %s: %d/%d blocks, %d unresolved, %d guesses\n"
           a.at_func a.at_blocks a.at_true_slots a.at_unresolved a.at_guesses)
      attackers
  end;
  { c_errs = errs;
    c_warns = warns;
    c_out = Buffer.contents buf;
    c_proven = proven;
    c_unproven = unproven;
    c_skipped = skipped;
    c_fields = json_of_report ~tname ~cfg_name report attackers;
    c_timings =
      J.Arr
        (List.map
           (fun (t : SA.Driver.timing) ->
              J.Obj
                [ ("pass", J.Str t.SA.Driver.t_pass);
                  ("wall_s", J.decimals 6 t.SA.Driver.t_wall_s);
                  ("cpu_s", J.decimals 6 t.SA.Driver.t_cpu_s) ])
           report.SA.Driver.r_timings) }

(* --- driver ---------------------------------------------------------------- *)

let main seed program config verbose jobs manifest trace metrics no_transval
    min_proven json_out no_timings ropaware inject inject_hidden =
  Obs.Run.with_reporting ?trace ~metrics @@ fun () ->
  let adjust cfg =
    let cfg =
      if inject then { cfg with Ropc.Config.debug_unbalanced_epilogue = true }
      else cfg
    in
    if inject_hidden then { cfg with Ropc.Config.debug_hidden_payload = true }
    else cfg
  in
  let matrix =
    match config with
    | None -> config_matrix seed
    | Some c ->
      (match List.assoc_opt c (config_matrix seed) with
       | Some cfg -> [ (c, cfg) ]
       | None ->
         Printf.eprintf "unknown config %s; available: %s\n" c
           (String.concat ", " (List.map fst (config_matrix seed)));
         exit 2)
  in
  let targets_l =
    match program with
    | None -> targets ()
    | Some p ->
      (match List.filter (fun (name, _, _) -> name = p) (targets ()) with
       | [] ->
         Printf.eprintf "unknown program %s; available: %s\n" p
           (String.concat ", " (List.map (fun (n, _, _) -> n) (targets ())));
         exit 2
       | ts -> ts)
  in
  let cells =
    List.concat_map
      (fun (name, _, _) -> List.map (fun (cn, _) -> (name, cn)) matrix)
      targets_l
  in
  let f (tname, cfg_name) =
    let _, build, fns = List.find (fun (n, _, _) -> n = tname) (targets ()) in
    let cfg = adjust (List.assoc cfg_name (config_matrix seed)) in
    lint_one ~verbose ~transval:(not no_transval) ~ropaware tname cfg_name cfg
      build fns
  in
  Jobs.Pool.with_manifest manifest (fun m ->
      let pool =
        { Jobs.Pool.default with
          Jobs.Pool.jobs; manifest = Some m;
          progress = Unix.isatty Unix.stderr }
      in
      let results =
        Jobs.Pool.map ~label:"roplint" pool
          ~key:(fun (t, c) ->
              Printf.sprintf
                "roplint/seed=%d/tv=%b/ra=%b/inj=%b/injh=%b/%s/%s" seed
                (not no_transval) ropaware inject inject_hidden t c)
          ~f cells
      in
      let runs = ref 0 and errs = ref 0 and warns = ref 0 in
      let proven = ref 0 and unproven = ref 0 and skipped = ref 0 in
      let cell_jsons = ref [] in
      List.iter2
        (fun (tname, cfg_name) (r : _ Jobs.Pool.result) ->
           incr runs;
           match r.Jobs.Pool.outcome with
           | Jobs.Pool.Done c ->
             print_string c.c_out;
             errs := !errs + c.c_errs;
             warns := !warns + c.c_warns;
             proven := !proven + c.c_proven;
             unproven := !unproven + c.c_unproven;
             skipped := !skipped + c.c_skipped;
             let timings =
               if no_timings then [] else [ ("timings", c.c_timings) ]
             in
             cell_jsons := J.Obj (c.c_fields @ timings) :: !cell_jsons
           | Jobs.Pool.Failed msg ->
             Printf.printf "== %s / %s ==\n  harness failure: %s\n" tname
               cfg_name msg;
             incr errs
           | Jobs.Pool.Timed_out t ->
             Printf.printf "== %s / %s ==\n  timed out after %.0fs\n" tname
               cfg_name t;
             incr errs)
        cells results;
      (match json_out with
       | None -> ()
       | Some path ->
         let oc = open_out path in
         output_string oc
           (J.to_string
              (J.Obj
                 [ ("schema", J.Str "roplint/v1"); ("seed", J.int seed);
                   ("cells", J.Arr (List.rev !cell_jsons)) ]));
         output_char oc '\n';
         close_out oc);
      let total = !proven + !unproven in
      let rate =
        if total = 0 then 100.0
        else 100.0 *. float_of_int !proven /. float_of_int total
      in
      if no_transval then
        Printf.printf "roplint: %d runs, %d errors, %d warnings\n" !runs !errs
          !warns
      else
        Printf.printf
          "roplint: %d runs, %d errors, %d warnings, transval %d/%d proven \
           (%.1f%%), %d skipped\n"
          !runs !errs !warns !proven total rate !skipped;
      if !errs > 0 then 1
      else if (not no_transval) && rate < min_proven then begin
        Printf.printf "roplint: proven rate %.1f%% below --min-proven %.1f%%\n"
          rate min_proven;
        1
      end
      else 0)

let cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Obfuscation seed.")
  in
  let program =
    Arg.(value & opt (some string) None
         & info [ "program" ] ~doc:"Lint only this built-in program.")
  in
  let config =
    Arg.(value & opt (some string) None
         & info [ "config" ] ~doc:"Lint only this configuration.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Print warnings, infos and per-pass summaries too.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Forked worker processes for the program x config matrix.")
  in
  let manifest =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"FILE"
             ~doc:"Write a JSON run manifest to $(docv).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a chrome://tracing JSON profile of the run to \
                   $(docv). Use --jobs 1 for a complete flame view.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Dump the metrics registry to stderr on exit.")
  in
  let no_transval =
    Arg.(value & flag
         & info [ "no-transval" ]
             ~doc:"Skip the translation-validation pass.")
  in
  let min_proven =
    Arg.(value & opt float 90.0
         & info [ "min-proven" ] ~docv:"PCT"
             ~doc:"Fail if fewer than $(docv) percent of directly-lowered \
                   regions are proven equivalent.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the machine-readable findings report to $(docv).")
  in
  let no_timings =
    Arg.(value & flag
         & info [ "no-timings" ]
             ~doc:"Omit per-pass timings from the JSON report (makes it \
                   byte-stable across runs).")
  in
  let ropaware =
    Arg.(value & flag
         & info [ "ropaware" ]
             ~doc:"Also run the ROP-aware static attacker per chain and \
                   report its recovery rate (slow).")
  in
  let inject =
    Arg.(value & flag
         & info [ "inject-unbalanced" ]
             ~doc:"Fault injection: rewrite with the deliberately unbalanced \
                   chain epilogue (the stack-discipline pass must flag it).")
  in
  let inject_hidden =
    Arg.(value & flag
         & info [ "inject-hidden" ]
             ~doc:"Fault injection: corrupt one instruction-hiding payload \
                   with a stray register write (translation validation must \
                   flag it). Only meaningful with +ih configurations.")
  in
  Cmd.v
    (Cmd.info "roplint"
       ~doc:"Fixpoint dataflow lint + translation validation for rewritten \
             images")
    Term.(const main $ seed $ program $ config $ verbose $ jobs $ manifest
          $ trace $ metrics $ no_transval $ min_proven $ json_out
          $ no_timings $ ropaware $ inject $ inject_hidden)

let () = exit (Cmd.eval' cmd)

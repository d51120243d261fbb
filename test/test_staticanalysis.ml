(* lib/staticanalysis: the fixpoint engine's convergence contract, the
   stack-discipline pass's ability to catch a seeded pivot bug, translation
   validation on directly-lowered regions, and stealth/pool-bloat smoke. *)

open Minic.Ast
module FP = Staticanalysis.Fixpoint
module SD = Staticanalysis.Stackdisc
module TV = Staticanalysis.Transval
module F = Verify.Finding

(* --- fixpoint engine ------------------------------------------------------ *)

(* Unbounded counter over a 2-node cycle: join climbs forever, so
   convergence is entirely the widening operator's doing. *)
module Count = struct
  type t = Bounded of int | Inf
  let equal = ( = )
  let join a b =
    match (a, b) with
    | Inf, _ | _, Inf -> Inf
    | Bounded x, Bounded y -> Bounded (max x y)
  let widen old joined = if equal old joined then old else Inf
end

module CFP = FP.Make (FP.Int_node) (Count)

let cycle_transfer n st =
  let st' =
    match st with Count.Inf -> Count.Inf | Count.Bounded k -> Count.Bounded (k + 1)
  in
  [ ((n + 1) mod 2, st') ]

let test_widening_terminates () =
  let res =
    CFP.solve ~entries:[ (0, Count.Bounded 0) ] ~transfer:cycle_transfer ()
  in
  Alcotest.(check int) "both nodes reached" 2 res.CFP.stats.FP.nodes;
  Alcotest.(check bool) "widening fired" true (res.CFP.stats.FP.widenings > 0);
  Alcotest.(check bool) "cycle stabilized at top" true
    (CFP.H.find_opt res.CFP.state 0 = Some Count.Inf
     && CFP.H.find_opt res.CFP.state 1 = Some Count.Inf)

(* A broken widening (identity) must surface as the typed Divergence error
   via the max_steps backstop, never as a hang. *)
module Noisy = struct
  type t = int
  let equal = Int.equal
  let join = max
  let widen _old joined = joined     (* deliberately does not stabilize *)
end

module NFP = FP.Make (FP.Int_node) (Noisy)

let test_divergence_backstop () =
  match
    NFP.solve ~widen_after:4 ~max_steps:100 ~entries:[ (0, 0) ]
      ~transfer:(fun n st -> [ ((n + 1) mod 2, st + 1) ])
      ()
  with
  | _ -> Alcotest.fail "expected Divergence"
  | exception FP.Divergence msg ->
    Alcotest.(check bool) "message names the backstop" true
      (String.length msg > 0)

(* --- stack discipline ----------------------------------------------------- *)

let fact_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "r"; "i" ] "fact"
        [ set "r" (c 1);
          For (set "i" (c 1), Bin (Les, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "r" (Bin (Mul, v "r", v "i")) ]);
          Return (v "r") ] ]

let rewrite ?(config = Ropc.Config.rop_k ~seed:3 1.0) () =
  let img = Minic.Codegen.compile fact_prog in
  let r = Ropc.Rewriter.rewrite img ~functions:[ "fact" ] ~config in
  (img, r)

let test_clean_chain_passes () =
  let _, r = rewrite () in
  let findings, stats = SD.chain_pass (Lazy.force r.Ropc.Rewriter.audit) in
  Alcotest.(check int) "no errors on a clean rewrite" 0
    (List.length (F.errors findings));
  (* the solver actually visited the chain *)
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "nodes visited" true (s.FP.nodes > 0))
    stats

(* The seeded bug: debug_unbalanced_epilogue skews the epilogue's virtual
   stack by one slot.  ropcheck's linear walk does not model the unswitch
   arithmetic; the interprocedural height analysis must flag it. *)
let test_injected_unbalance_caught () =
  let config =
    { (Ropc.Config.rop_k ~seed:3 1.0) with
      Ropc.Config.debug_unbalanced_epilogue = true }
  in
  let _, r = rewrite ~config () in
  let findings, _ = SD.chain_pass (Lazy.force r.Ropc.Rewriter.audit) in
  let tags = List.map (fun f -> f.F.tag) (F.errors findings) in
  Alcotest.(check bool) "chain-unswitch-unbalanced reported" true
    (List.mem "chain-unswitch-unbalanced" tags)

(* --- translation validation ----------------------------------------------- *)

let test_transval_proves_fact () =
  (* k = 0.25 leaves most points directly lowered; k = 1.0 would shield
     every one behind a P3 loop and (correctly) skip them all *)
  let orig, r = rewrite ~config:(Ropc.Config.rop_k ~seed:3 0.25) () in
  let tv =
    TV.run ~orig ~rewritten:r.Ropc.Rewriter.image
      (Lazy.force r.Ropc.Rewriter.audit)
  in
  Alcotest.(check bool) "proved at least one region" true (tv.TV.tv_proven > 0);
  Alcotest.(check int) "no unproven regions" 0 tv.TV.tv_unproven;
  Alcotest.(check int) "no findings" 0 (List.length tv.TV.tv_findings);
  (* every region is accounted for: proven or skipped-with-reason *)
  List.iter
    (fun (_, _, reason) ->
       Alcotest.(check bool) "skip has a reason" true (String.length reason > 0))
    tv.TV.tv_skipped

(* Instruction hiding at k = 1.0 shields every point behind a P3 loop, but
   the hidden-payload regions are real lowered code and must still be
   validated — the +ih audit converts would-be skips into proven regions. *)
let test_transval_proves_hidden () =
  let orig, r = rewrite ~config:(Ropc.Config.rop_k ~seed:3 ~hiding:true 1.0) () in
  let tv =
    TV.run ~orig ~rewritten:r.Ropc.Rewriter.image
      (Lazy.force r.Ropc.Rewriter.audit)
  in
  Alcotest.(check bool) "proved hidden-payload regions" true (tv.TV.tv_proven > 0);
  Alcotest.(check int) "no unproven regions" 0 tv.TV.tv_unproven;
  Alcotest.(check int) "no findings" 0 (List.length tv.TV.tv_findings)

(* The seeded hidden-payload bug: a stray register write smuggled into one
   payload.  The differential runs cannot see it unless the register is
   observed downstream, but translation validation compares full final
   states and must refuse to prove the region. *)
let test_injected_hidden_caught () =
  let config =
    { (Ropc.Config.rop_k ~seed:3 ~hiding:true 1.0) with
      Ropc.Config.debug_hidden_payload = true }
  in
  let orig, r = rewrite ~config () in
  let tv =
    TV.run ~orig ~rewritten:r.Ropc.Rewriter.image
      (Lazy.force r.Ropc.Rewriter.audit)
  in
  let tags = List.map (fun f -> f.F.tag) tv.TV.tv_findings in
  Alcotest.(check bool) "transval-mismatch reported" true
    (List.mem "transval-mismatch" tags)

(* Exact Transval totals over base64 x the whole one-shot config matrix at
   seed 1 (the numbers [roplint --program base64] prints).  Symbolic
   memory's write log is what Transval compares, so any change to which
   writes it keeps shows up here as a moved count, not just as a rate. *)
let test_transval_base64_matrix_pinned () =
  let orig = Minic.Codegen.compile (Minic.Programs.base64_program ()) in
  let proven, unproven, skipped =
    List.fold_left
      (fun (p, u, s) (_, config) ->
         let r =
           Ropc.Rewriter.rewrite orig ~functions:[ "b64_check"; "b64_encode" ]
             ~config
         in
         let tv =
           TV.run ~orig ~rewritten:r.Ropc.Rewriter.image
             (Lazy.force r.Ropc.Rewriter.audit)
         in
         (p + tv.TV.tv_proven, u + tv.TV.tv_unproven,
          s + List.length tv.TV.tv_skipped))
      (0, 0, 0) (Serve.Oneshot.config_matrix 1)
  in
  Alcotest.(check int) "proven" 1800 proven;
  Alcotest.(check int) "unproven" 0 unproven;
  Alcotest.(check int) "skipped" 3105 skipped

(* --- stealth + pool bloat ------------------------------------------------- *)

let test_stealth_smoke () =
  let _, r = rewrite () in
  let st =
    Staticanalysis.Stealth.run ~rewritten:r.Ropc.Rewriter.image
      (Lazy.force r.Ropc.Rewriter.audit)
  in
  List.iter
    (fun fs ->
       let s = fs.Staticanalysis.Stealth.fs_score in
       Alcotest.(check bool) "score in [0,100]" true (s >= 0. && s <= 100.))
    st.Staticanalysis.Stealth.sl_funcs;
  Alcotest.(check bool) "rewritten fact scored" true
    (List.exists
       (fun fs -> fs.Staticanalysis.Stealth.fs_name = "fact")
       st.Staticanalysis.Stealth.sl_funcs)

(* Stealth recalibration for the opaque layer: residuals are plain data
   words and the dispatch trampoline is one more pool pointer, so the
   opaque chain must never look MORE like an injected ROP payload than the
   literal chain it replaces — and both must stay below the warning
   threshold on today's corpus shapes. *)
let test_stealth_opaque_vs_literal () =
  let score config =
    let _, r = rewrite ~config () in
    let st =
      Staticanalysis.Stealth.run ~rewritten:r.Ropc.Rewriter.image
        (Lazy.force r.Ropc.Rewriter.audit)
    in
    match
      List.find_opt
        (fun fs -> fs.Staticanalysis.Stealth.fs_name = "fact")
        st.Staticanalysis.Stealth.sl_funcs
    with
    | Some fs ->
      (fs.Staticanalysis.Stealth.fs_score,
       fs.Staticanalysis.Stealth.fs_slot_frac)
    | None -> Alcotest.fail "fact not scored"
  in
  let lit_score, lit_slot = score (Ropc.Config.rop_k ~seed:3 1.0) in
  let opq_score, opq_slot =
    score (Ropc.Config.rop_k ~seed:3 ~opaque:true 1.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "opaque slot_frac %.3f <= literal %.3f" opq_slot lit_slot)
    true (opq_slot <= lit_slot +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "opaque score %.1f <= literal %.1f" opq_score lit_score)
    true (opq_score <= lit_score +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "opaque score %.1f below warning threshold" opq_score)
    true (opq_score < Staticanalysis.Stealth.warning_threshold)

let test_poolbloat_smoke () =
  let _, r = rewrite () in
  let pb = Staticanalysis.Poolbloat.run (Lazy.force r.Ropc.Rewriter.audit) in
  let open Staticanalysis.Poolbloat in
  Alcotest.(check bool) "pool has gadgets" true (pb.pb_total > 0);
  Alcotest.(check bool) "referenced <= total" true
    (pb.pb_referenced <= pb.pb_total);
  Alcotest.(check bool) "live bytes within pool" true
    (pb.pb_live_bytes <= pb.pb_pool_bytes)

(* --- driver --------------------------------------------------------------- *)

let test_driver_end_to_end () =
  let orig, r = rewrite () in
  let report =
    Staticanalysis.Driver.lint ~orig ~rewritten:r.Ropc.Rewriter.image
      (Lazy.force r.Ropc.Rewriter.audit)
  in
  Alcotest.(check int) "no errors" 0
    (List.length (F.errors report.Staticanalysis.Driver.r_findings));
  let passes =
    List.map
      (fun t -> t.Staticanalysis.Driver.t_pass)
      report.Staticanalysis.Driver.r_timings
  in
  Alcotest.(check (list string)) "all four passes timed"
    [ "stackdisc"; "transval"; "stealth"; "poolbloat" ] passes

let () =
  Alcotest.run "staticanalysis"
    [ ("fixpoint",
       [ Alcotest.test_case "widening terminates a counter cycle" `Quick
           test_widening_terminates;
         Alcotest.test_case "broken widening raises Divergence" `Quick
           test_divergence_backstop ]);
      ("stackdisc",
       [ Alcotest.test_case "clean chain has no errors" `Quick
           test_clean_chain_passes;
         Alcotest.test_case "seeded unbalanced epilogue caught" `Quick
           test_injected_unbalance_caught ]);
      ("transval",
       [ Alcotest.test_case "fact regions proven" `Quick
           test_transval_proves_fact;
         Alcotest.test_case "hidden-payload regions proven" `Quick
           test_transval_proves_hidden;
         Alcotest.test_case "seeded hidden payload caught" `Quick
           test_injected_hidden_caught;
         Alcotest.test_case "base64 x config matrix totals" `Quick
           test_transval_base64_matrix_pinned ]);
      ("stealth",
       [ Alcotest.test_case "scores bounded" `Quick test_stealth_smoke;
         Alcotest.test_case "opaque chains score no worse than literal" `Quick
           test_stealth_opaque_vs_literal ]);
      ("poolbloat",
       [ Alcotest.test_case "accounting invariants" `Quick
           test_poolbloat_smoke ]);
      ("driver",
       [ Alcotest.test_case "end to end on fact" `Quick
           test_driver_end_to_end ]) ]

(* Tests for the TDS simplifier and the ROP-aware analyses, checking the
   qualitative claims of §VII-A on small targets. *)

open Minic.Ast

(* a simple secret check with two branches *)
let branchy_prog =
  program
    [ func ~params:[ "x" ] ~locals:[ "h" ] "target"
        [ set "h" (Bin (Mul, band (v "x") (c 0xFF), c 37));
          If (Bin (Eq, band (v "h") (c 0xFF), c 0x42),
              [ Return (c 1) ],
              [ If (Bin (Gts, v "h", c 4000),
                    [ Return (c 2) ],
                    [ Return (c 0) ]) ]) ] ]

let compile_rop ?(config = Ropc.Config.plain ()) prog fnames =
  let img = Minic.Codegen.compile prog in
  let r = Ropc.Rewriter.rewrite img ~functions:fnames ~config in
  List.iter
    (fun (f, res) ->
       match res with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "rewrite %s: %s" f (Ropc.Rewriter.failure_to_string e))
    r.Ropc.Rewriter.funcs;
  r

(* --- TDS -------------------------------------------------------------------- *)

let test_tds_native () =
  let img = Minic.Codegen.compile branchy_prog in
  let r = Taint.Tds.run img ~func:"target" ~n_inputs:1 ~input:[| 7 |] in
  Alcotest.(check bool) "some kept" true (r.Taint.Tds.n_kept > 0);
  Alcotest.(check bool) "trace simplified" true (r.Taint.Tds.n_removed > 0);
  Alcotest.(check bool) "tainted branches present" true
    (r.Taint.Tds.tainted_branches >= 1)

let test_tds_rop_dispatch_removed () =
  (* plain ROP encoding: the ret dispatching is untainted and gets
     simplified away; the kept fraction shrinks relative to the full trace *)
  let r = compile_rop branchy_prog [ "target" ] in
  let tr =
    Taint.Tracer.record r.Ropc.Rewriter.image ~func:"target" ~n_inputs:1
      ~input:[| 7 |]
  in
  Alcotest.(check bool) "trace recorded" true (List.length tr.Taint.Tracer.entries > 50);
  let s = Taint.Tds.simplify tr in
  let kept_frac = float_of_int s.Taint.Tds.n_kept /. float_of_int s.Taint.Tds.total in
  Alcotest.(check bool)
    (Printf.sprintf "dispatch simplified (kept %.0f%%)" (kept_frac *. 100.))
    true (kept_frac < 0.9)

let test_tds_p3_survives () =
  (* P3 must leave more input-tainted control decisions in the trace than
     the plain encoding (§V-C: TDS cannot remove them) *)
  let plain = compile_rop branchy_prog [ "target" ] in
  let p3 = compile_rop ~config:(Ropc.Config.rop_k 1.0) branchy_prog [ "target" ] in
  let s_plain =
    Taint.Tds.run plain.Ropc.Rewriter.image ~func:"target" ~n_inputs:1 ~input:[| 7 |]
  in
  let s_p3 =
    Taint.Tds.run p3.Ropc.Rewriter.image ~func:"target" ~n_inputs:1 ~input:[| 7 |]
  in
  (* P3 multiplies the input-tainted control decisions (implicit control
     dependencies) that the simplifier must keep (§V-C) *)
  Alcotest.(check bool)
    (Printf.sprintf "p3 tainted control %d > 2x plain %d"
       s_p3.Taint.Tds.tainted_branches s_plain.Taint.Tds.tainted_branches)
    true
    (s_p3.Taint.Tds.tainted_branches > 2 * s_plain.Taint.Tds.tainted_branches)

(* A memory destination's address registers are reads: the tracer lists
   rbx for [setcc [rbx]] and [pop [rbx]]. *)
let test_tracer_dst_address_reads () =
  let open X86.Isa in
  let at_rbx = Mem (mem_b RBX 0) in
  let img =
    Asm.link
      { Asm.u_functions =
          [ ("target",
             [ Asm.Ins (Lea (RBX, mem_b RSP (-64)));
               Asm.Ins (Setcc (E, at_rbx));
               Asm.Ins (Push (Reg RAX));
               Asm.Ins (Pop at_rbx);
               Asm.Ins Ret ]) ];
        Asm.u_data = [] }
  in
  let tr = Taint.Tracer.record img ~func:"target" ~n_inputs:1 ~input:[| 7 |] in
  let reads_of p =
    match
      List.find_opt (fun e -> p e.Taint.Tracer.e_instr) tr.Taint.Tracer.entries
    with
    | Some e -> e.Taint.Tracer.e_reads
    | None -> Alcotest.fail "instruction not traced"
  in
  List.iter
    (fun (name, p) ->
       Alcotest.(check bool) (name ^ " reads rbx") true
         (List.mem (Taint.Tracer.L_reg RBX) (reads_of p)))
    [ ("setcc [rbx]", (function Setcc _ -> true | _ -> false));
      ("pop [rbx]", (function Pop (Mem _) -> true | _ -> false)) ]

(* The four TDS rows of §VII-A.1 (experiments efficacy), pinned exactly:
   trace length, kept entries and kept input-tainted control decisions. *)
let test_tds_efficacy_pin () =
  let rows =
    Harness.Experiments.efficacy_tds (Harness.Experiments.efficacy_target ())
  in
  let got =
    List.map
      (fun (name, (s : Taint.Tds.result)) ->
         (name, s.Taint.Tds.total, s.Taint.Tds.n_kept,
          s.Taint.Tds.tainted_branches))
      rows
  in
  let row = Alcotest.(list (pair string (triple int int int))) in
  Alcotest.check row "total/kept/tainted_branches"
    [ ("native", (589, 497, 5));
      ("ROP plain", (3007, 6, 5));
      ("ROP_0 (P1)", (3360, 6, 5));
      ("ROP_1.0 (P1+P3)", (69620, 1554, 1553)) ]
    (List.map (fun (n, a, b, c) -> (n, (a, b, c))) got)

(* --- ROPMEMU ---------------------------------------------------------------- *)

let test_ropmemu_explores_plain () =
  let r = compile_rop branchy_prog [ "target" ] in
  (* baseline input 7 returns 0; flipping should reveal other paths *)
  let res = Ropaware.Ropmemu.explore r.Ropc.Rewriter.image ~func:"target" ~args:[ 7L ] in
  Alcotest.(check bool) "multiple traces" true (res.Ropaware.Ropmemu.traces > 1);
  Alcotest.(check bool) "flag sites found" true (res.Ropaware.Ropmemu.flag_sites > 0);
  (* compare against single-trace discovery *)
  let single =
    Ropaware.Ropmemu.explore
      ~config:{ Ropaware.Ropmemu.default_config with max_traces = 1 }
      r.Ropc.Rewriter.image ~func:"target" ~args:[ 7L ]
  in
  Alcotest.(check bool) "flips discover more chain code" true
    (Hashtbl.length res.Ropaware.Ropmemu.discovered_slots
     > Hashtbl.length single.Ropaware.Ropmemu.discovered_slots)

let test_ropmemu_blocked_by_p2 () =
  let plain = compile_rop branchy_prog [ "target" ] in
  let p2 = compile_rop ~config:(Ropc.Config.rop_k ~p2:true 0.0) branchy_prog [ "target" ] in
  let explore img =
    Ropaware.Ropmemu.explore img ~func:"target" ~args:[ 7L ]
  in
  let r_plain = explore plain.Ropc.Rewriter.image in
  let r_p2 = explore p2.Ropc.Rewriter.image in
  (* under P2, blind flips corrupt RSP: flipped traces fault *)
  Alcotest.(check bool)
    (Printf.sprintf "p2 faults (%d) > plain faults (%d)"
       r_p2.Ropaware.Ropmemu.faulted_traces r_plain.Ropaware.Ropmemu.faulted_traces)
    true
    (r_p2.Ropaware.Ropmemu.faulted_traces > r_plain.Ropaware.Ropmemu.faulted_traces)

(* --- ROPDissector ------------------------------------------------------------ *)

let chain_info (r : Ropc.Rewriter.result) =
  match List.assoc "target" r.Ropc.Rewriter.funcs with
  | Ok st -> (st.Ropc.Rewriter.fs_chain_addr, st.Ropc.Rewriter.fs_chain_bytes,
              List.length st.Ropc.Rewriter.fs_block_offsets)
  | Error _ -> Alcotest.fail "rewrite failed"

let test_ropdissector_plain () =
  let r = compile_rop branchy_prog [ "target" ] in
  let addr, len, n_blocks = chain_info r in
  let res =
    Ropaware.Ropdissector.analyze r.Ropc.Rewriter.image ~chain_addr:addr
      ~chain_len:len
  in
  Alcotest.(check bool)
    (Printf.sprintf "blocks %d >= cfg blocks %d"
       (Hashtbl.length res.Ropaware.Ropdissector.blocks) n_blocks)
    true
    (Hashtbl.length res.Ropaware.Ropdissector.blocks >= n_blocks);
  Alcotest.(check bool) "branches recognized" true
    (res.Ropaware.Ropdissector.branches >= 1)

let test_ropdissector_blocked_by_p2 () =
  let plain = compile_rop branchy_prog [ "target" ] in
  let p2 = compile_rop ~config:{ (Ropc.Config.plain ()) with Ropc.Config.p2 = true }
      branchy_prog [ "target" ] in
  let run r =
    let addr, len, _ = chain_info r in
    Ropaware.Ropdissector.analyze r.Ropc.Rewriter.image ~chain_addr:addr ~chain_len:len
  in
  let r_plain = run plain in
  let r_p2 = run p2 in
  Alcotest.(check bool)
    (Printf.sprintf "p2 blocks (%d) < plain blocks (%d)"
       (Hashtbl.length r_p2.Ropaware.Ropdissector.blocks)
       (Hashtbl.length r_plain.Ropaware.Ropdissector.blocks))
    true
    (Hashtbl.length r_p2.Ropaware.Ropdissector.blocks
     < Hashtbl.length r_plain.Ropaware.Ropdissector.blocks);
  Alcotest.(check bool) "p2 leaves unresolved updates" true
    (r_p2.Ropaware.Ropdissector.unresolved > 0)

let test_gadget_guess_confusion_explodes () =
  let plain = compile_rop branchy_prog [ "target" ] in
  let conf =
    compile_rop
      ~config:{ (Ropc.Config.plain ()) with
                Ropc.Config.gadget_confusion = true;
                skew_prob = 40; imm_confusion_prob = 60 }
      branchy_prog [ "target" ]
  in
  let guess r =
    let addr, len, _ = chain_info r in
    (Ropaware.Ropdissector.gadget_guess ~stride:1 r.Ropc.Rewriter.image
       ~chain_addr:addr ~chain_len:len).Ropaware.Ropdissector.candidates
    * 1000 / len
  in
  let density_plain = guess plain in
  let density_conf = guess conf in
  Alcotest.(check bool)
    (Printf.sprintf "candidate density: confusion %d/1k > plain %d/1k"
       density_conf density_plain)
    true (density_conf > density_plain)

let () =
  Alcotest.run "attacks"
    [ ("tds",
       [ Alcotest.test_case "native trace" `Quick test_tds_native;
         Alcotest.test_case "rop dispatch removed" `Quick test_tds_rop_dispatch_removed;
         Alcotest.test_case "p3 survives tds" `Quick test_tds_p3_survives;
         Alcotest.test_case "efficacy rows pinned" `Quick test_tds_efficacy_pin;
         Alcotest.test_case "destination address reads" `Quick
           test_tracer_dst_address_reads ]);
      ("ropmemu",
       [ Alcotest.test_case "explores plain rop" `Quick test_ropmemu_explores_plain;
         Alcotest.test_case "blocked by p2" `Quick test_ropmemu_blocked_by_p2 ]);
      ("ropdissector",
       [ Alcotest.test_case "recovers plain cfg" `Quick test_ropdissector_plain;
         Alcotest.test_case "blocked by p2" `Quick test_ropdissector_blocked_by_p2;
         Alcotest.test_case "confusion explodes guessing" `Quick
           test_gadget_guess_confusion_explodes ]) ]

(* Static chain verifier (lib/verify) tests.

   Positive: across the Table I/II configuration matrix, rewriting a program
   and running the four passes yields zero diagnostics — the verifier accepts
   everything the rewriter actually produces (the full-corpus version of this
   check runs as `dune build @check`).

   Negative: each fault-injection test corrupts one claim or one stretch of
   image bytes and asserts the verifier reports the matching diagnostic kind.
   This is what makes the positive result meaningful: a checker that cannot
   reject anything proves nothing. *)

open Minic.Ast
module A = Ropc.Audit
module R = Analysis.Regset

let fact_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "r"; "i" ] "fact"
        [ set "r" (c 1);
          For (set "i" (c 1), Bin (Les, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "r" (Bin (Mul, v "r", v "i")) ]);
          Return (v "r") ] ]

let switch_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "a" ] "classify"
        [ Switch (v "n",
                  [ (0, [ Return (c 100) ]); (1, [ Return (c 101) ]);
                    (2, [ Return (c 102) ]); (4, [ Return (c 104) ]) ],
                  [ Return (Bin (Add, v "n", c 1)) ]) ] ]

let call_prog =
  program
    [ func ~params:[ "x" ] "double" [ Return (Bin (Add, v "x", v "x")) ];
      func ~params:[ "n" ] ~locals:[ "s"; "i" ] "main"
        [ set "s" (c 0);
          For (set "i" (c 0), Bin (Les, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "s" (Bin (Add, v "s", call "double" [ v "i" ])) ]);
          Return (v "s") ] ]

let configs =
  [ ("plain", Ropc.Config.plain ());
    ("rop0.25", Ropc.Config.rop_k ~seed:1 0.25);
    ("rop1.0", Ropc.Config.rop_k ~seed:1 1.0);
    ("rop1.0+p2", Ropc.Config.rop_k ~seed:1 ~p2:true 1.0);
    ("rop1.0+gc", Ropc.Config.rop_k ~seed:1 ~confusion:true 1.0);
    ("rop1.0+p2+gc", Ropc.Config.rop_k ~seed:1 ~p2:true ~confusion:true 1.0);
    ("rop1.0+oc", Ropc.Config.rop_k ~seed:1 ~opaque:true 1.0);
    ("rop1.0+ih", Ropc.Config.rop_k ~seed:1 ~hiding:true 1.0);
    ("rop1.0+oc+ih", Ropc.Config.rop_k ~seed:1 ~opaque:true ~hiding:true 1.0);
    ("rop1.0+oc+ih+pf",
     Ropc.Config.rop_k ~seed:1 ~opaque:true ~hiding:true ~pf:true 1.0);
    ("rop1.0+p2+gc+oc+ih",
     Ropc.Config.rop_k ~seed:1 ~p2:true ~confusion:true ~opaque:true
       ~hiding:true 1.0) ]

let rewrite ?(config = Ropc.Config.rop_k ~seed:1 0.25) prog fns =
  let img = Minic.Codegen.compile prog in
  let r = Ropc.Rewriter.rewrite img ~functions:fns ~config in
  List.iter
    (fun (f, res) ->
       match res with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "rewrite of %s failed: %s" f
           (Ropc.Rewriter.failure_to_string e))
    r.Ropc.Rewriter.funcs;
  r

(* --- positive: the matrix verifies clean ---------------------------------- *)

let check_clean name r =
  match Verify.Check.check r with
  | [] -> ()
  | ds -> Alcotest.failf "%s: %s" name (Verify.Diag.render_all ds)

let test_matrix_clean () =
  List.iter
    (fun (cname, config) ->
       check_clean ("fact/" ^ cname) (rewrite ~config fact_prog [ "fact" ]);
       check_clean ("classify/" ^ cname)
         (rewrite ~config switch_prog [ "classify" ]);
       check_clean ("call/" ^ cname)
         (rewrite ~config call_prog [ "main"; "double" ]))
    configs

(* seeds diversify gadget pools and chain layouts; the verifier must track *)
let test_seeds_clean () =
  List.iter
    (fun seed ->
       let config = Ropc.Config.rop_k ~seed ~p2:true ~confusion:true 1.0 in
       check_clean
         (Printf.sprintf "fact/seed%d" seed)
         (rewrite ~config fact_prog [ "fact" ]))
    [ 2; 3; 17; 99 ]

(* --- negative: fault injection -------------------------------------------- *)

let has_kind kind ds =
  List.exists (fun d -> d.Verify.Diag.kind = kind) (Verify.Diag.errors ds)

let kind_name = Verify.Diag.kind_str

let expect_kind name kind ds =
  if not (has_kind kind ds) then
    Alcotest.failf "%s: expected %s, got:\n%s" name (kind_name kind)
      (if ds = [] then "  (no diagnostics)" else Verify.Diag.render_all ds)

(* corrupting a synthesized gadget's first byte must break the decode check *)
let test_inject_gadget_byte_flip () =
  let r = rewrite fact_prog [ "fact" ] in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let img = r.Ropc.Rewriter.image in
  let g =
    match List.find_opt (fun g -> not g.A.g_found) audit.A.a_gadgets with
    | Some g -> g
    | None -> Alcotest.fail "no synthesized gadget in pool"
  in
  (match Image.read_byte img g.A.g_addr with
   | Some b -> Image.patch img g.A.g_addr 1 (Int64.of_int (b lxor 0xff))
   | None -> Alcotest.fail "gadget address unreadable");
  expect_kind "byte flip" Verify.Diag.Gadget_decode_mismatch
    (Verify.Check.run img audit)

(* relabeling a gadget (claiming a different body) is the same failure seen
   from the audit side *)
let test_inject_gadget_mislabel () =
  let r = rewrite fact_prog [ "fact" ] in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let open X86.Isa in
  let mislabeled =
    { audit with
      A.a_gadgets =
        List.map
          (fun g ->
             if g.A.g_found then g
             else
               { g with
                 A.g_gadget =
                   { g.A.g_gadget with
                     Gadget.body = [ Mov (W64, Reg RBX, Imm 0x42L) ] } })
          audit.A.a_gadgets }
  in
  expect_kind "mislabel" Verify.Diag.Gadget_decode_mismatch
    (Verify.Check.run r.Ropc.Rewriter.image mislabeled)

(* widening a roplet's recorded live set onto a register its gadgets write
   must trip the clobber pass *)
let test_inject_live_clobber () =
  let r = rewrite fact_prog [ "fact" ] in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let _, summaries = Verify.Check.gadget_pass r.Ropc.Rewriter.image audit in
  (* find a point and a register that its slots write but nothing excuses *)
  let pick (f : A.func) =
    List.find_map
      (fun (p : A.point) ->
         let written =
           Array.fold_left
             (fun acc (_, s) ->
                match s with
                | Ropc.Chain.S_gadget a ->
                  (match Hashtbl.find_opt summaries a with
                   | Some su -> R.union acc su.Verify.Summary.writes
                   | None -> acc)
                | _ -> acc)
             R.empty p.A.p_slots
         in
         let excused =
           R.add (R.union p.A.p_defs (R.union p.A.p_borrowed p.A.p_live))
             X86.Isa.RSP
         in
         match R.to_list (R.diff written excused) with
         | reg :: _ -> Some (p, reg)
         | [] -> None)
      f.A.f_points
  in
  let injected = ref false in
  let funcs =
    List.map
      (fun (f : A.func) ->
         match (if !injected then None else pick f) with
         | None -> f
         | Some (victim, reg) ->
           injected := true;
           { f with
             A.f_points =
               List.map
                 (fun p ->
                    if p == victim then
                      { p with A.p_live = R.add p.A.p_live reg }
                    else p)
                 f.A.f_points })
      audit.A.a_funcs
  in
  if not !injected then Alcotest.fail "no injectable point found";
  expect_kind "live clobber" Verify.Diag.Clobber_live_reg
    (Verify.Check.run r.Ropc.Rewriter.image { audit with A.a_funcs = funcs })

(* shrinking the recorded symbol size below the pivot stub must be caught *)
let test_inject_undersized_stub () =
  let r = rewrite fact_prog [ "fact" ] in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let funcs =
    List.map
      (fun (f : A.func) -> { f with A.f_sym_size = f.A.f_stub_len - 1 })
      audit.A.a_funcs
  in
  expect_kind "undersized stub" Verify.Diag.Layout_stub_overflow
    (Verify.Check.run r.Ropc.Rewriter.image { audit with A.a_funcs = funcs })

(* smashing materialized chain bytes must break the slot byte check *)
let test_inject_chain_patch () =
  let r = rewrite fact_prog [ "fact" ] in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let img = r.Ropc.Rewriter.image in
  let f = List.hd audit.A.a_funcs in
  let off =
    match
      Array.to_list f.A.f_layout
      |> List.find_opt (fun (_, s) ->
             match s with Ropc.Chain.S_gadget _ -> true | _ -> false)
    with
    | Some (off, _) -> off
    | None -> Alcotest.fail "chain has no gadget slot"
  in
  Image.patch img
    (Int64.add f.A.f_chain_base (Int64.of_int off)) 8 0x4141414141414141L;
  expect_kind "chain patch" Verify.Diag.Chain_byte_mismatch
    (Verify.Check.run img audit)

(* P1: bumping an opaque-array class cell by a non-multiple of m breaks the
   residue invariant every encoded branch depends on *)
let test_inject_p1_residue () =
  let config = Ropc.Config.rop_k ~seed:1 0.0 in
  let r = rewrite ~config fact_prog [ "fact" ] in
  let audit = Lazy.force r.Ropc.Rewriter.audit in
  let img = r.Ropc.Rewriter.image in
  let f = List.hd audit.A.a_funcs in
  (match f.A.f_p1 with
   | None -> Alcotest.fail "config has P1 but no array was recorded"
   | Some (base, _, _) ->
     (match Verify.Check.read64 img base with
      | Some v -> Image.patch img base 8 (Int64.add v 1L)
      | None -> Alcotest.fail "P1 array unreadable"));
  expect_kind "P1 residue" Verify.Diag.Chain_p1_invariant
    (Verify.Check.run img audit)

(* the seeded wrong-residue fault: one opaque slot is materialized against
   the wrong residue class, so it recovers the wrong value at runtime.  The
   byte check recomputes stored bytes from the P1 array's ground truth and
   must flag the slot — this is the fault leg that keeps the opaque-constant
   audit honest. *)
let test_inject_opaque_residue () =
  let config =
    { (Ropc.Config.rop_k ~seed:1 ~opaque:true 1.0) with
      Ropc.Config.debug_opaque_residue = true }
  in
  let r = rewrite ~config fact_prog [ "fact" ] in
  expect_kind "opaque residue" Verify.Diag.Chain_byte_mismatch
    (Verify.Check.run r.Ropc.Rewriter.image (Lazy.force r.Ropc.Rewriter.audit))

(* A finding renders to JSON that parses back to the same fields, even when
   its function name and message carry a quote, a newline and a control
   byte. *)
let test_finding_json () =
  let module J = Obs.Json in
  let f =
    Verify.Finding.make ~severity:Verify.Finding.Warning ~func:"f\"n\nx\x01"
      ~addr:0x401000L ~chain_off:24 "chain-bad-slot" "slot \"7\"\nbad\x02 byte"
  in
  match J.parse (J.to_string (Verify.Finding.to_json f)) with
  | Error e -> Alcotest.fail ("finding JSON: " ^ e)
  | Ok v ->
    Alcotest.(check bool) "fields read back" true
      (v
       = J.Obj
           [ ("severity", J.Str "warning"); ("tag", J.Str "chain-bad-slot");
             ("func", J.Str "f\"n\nx\x01"); ("addr", J.Str "0x401000");
             ("chain_off", J.Num 24.0); ("msg", J.Str "slot \"7\"\nbad\x02 byte") ])

let () =
  Alcotest.run "verify"
    [ ("positive",
       [ Alcotest.test_case "config matrix verifies clean" `Quick
           test_matrix_clean;
         Alcotest.test_case "seed sweep verifies clean" `Quick
           test_seeds_clean ]);
      ("fault injection",
       [ Alcotest.test_case "gadget byte flip" `Quick
           test_inject_gadget_byte_flip;
         Alcotest.test_case "gadget mislabel" `Quick
           test_inject_gadget_mislabel;
         Alcotest.test_case "live-register clobber" `Quick
           test_inject_live_clobber;
         Alcotest.test_case "undersized pivot stub" `Quick
           test_inject_undersized_stub;
         Alcotest.test_case "chain byte patch" `Quick test_inject_chain_patch;
         Alcotest.test_case "P1 residue break" `Quick test_inject_p1_residue;
         Alcotest.test_case "opaque wrong-residue slot" `Quick
           test_inject_opaque_residue ]);
      ("report",
       [ Alcotest.test_case "finding JSON round-trip" `Quick test_finding_json ]) ]

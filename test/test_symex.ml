(* Tests for the symbolic-execution stack: expression semantics vs. the
   concrete machine, solver soundness, and end-to-end attacks (DSE cracks
   native targets; the symbolic stepper agrees with concrete execution on
   obfuscated chains). *)

module E = Symex.Expr

(* --- expression evaluation ------------------------------------------------ *)

let gen_expr_conc =
  (* random expression over 2 input bytes, paired evaluation *)
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then
      oneof
        [ map (fun v -> E.Const (Int64.of_int v)) int;
          oneofl [ E.Input 0; E.Input 1 ] ]
    else
      let sub = go (depth - 1) in
      oneof
        [ (let* a = sub in
           let* b = sub in
           let* op =
             oneofl
               [ E.Add; E.Sub; E.Mul; E.And; E.Or; E.Xor; E.Shl; E.Shr;
                 E.Eq; E.Ult; E.Slt ]
           in
           return (E.Bin (op, a, b)));
          (let* a = sub in
           oneofl [ E.Un (E.Not, a); E.Un (E.Neg, a) ]) ]
  in
  go 4

let prop_eval_matches_compiled =
  QCheck.Test.make ~name:"compiled eval = tree eval" ~count:500
    QCheck.(pair (make gen_expr_conc) (pair (int_bound 255) (int_bound 255)))
    (fun (e, (b0, b1)) ->
       let input i = if i = 0 then b0 else b1 in
       let tree = E.eval ~input e in
       let memo = (E.evaluator ~input) e in
       let comp = E.compile [ e ] in
       let v = E.run comp ~input in
       tree = memo && tree = v.(comp.E.roots.(0)))

let prop_solver_sound =
  QCheck.Test.make ~name:"solver models satisfy constraints" ~count:200
    QCheck.(make gen_expr_conc)
    (fun e ->
       let cs = [ { Symex.Solver.cond = e; want = true } ] in
       match Symex.Solver.solve ~n_inputs:2 ~max_evals:70000 cs with
       | Some m -> Symex.Solver.check m cs
       | None -> true)

let test_solver_finds_eq () =
  (* in[0] ^ 0x5A == 0x33 *)
  let e =
    E.bin E.Eq (E.bin E.Xor (E.Input 0) (E.Const 0x5AL)) (E.Const 0x33L)
  in
  match Symex.Solver.solve ~n_inputs:1 ~max_evals:1000
          [ { Symex.Solver.cond = e; want = true } ]
  with
  | Some m -> Alcotest.(check int) "x" (0x5A lxor 0x33) m.(0)
  | None -> Alcotest.fail "no model"

let test_solver_unsat () =
  let e = E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 1L)) (E.Const 7L) in
  Alcotest.(check bool) "unsat" true
    (Symex.Solver.solve ~n_inputs:1 ~max_evals:1000
       [ { Symex.Solver.cond = e; want = true } ]
     = None)

(* --- symbolic stepper vs concrete machine ---------------------------------- *)

(* run both engines on a corpus function for the same input; RAX must agree *)
let sym_matches_concrete ?config (t : Minic.Randomfuns.t) input =
  let img = Minic.Codegen.compile t.prog in
  let img =
    match config with
    | None -> img
    | Some config ->
      (Ropc.Rewriter.rewrite img ~functions:[ "target" ] ~config).Ropc.Rewriter.image
  in
  let n_inputs = Int64.to_int (Int64.add (Int64.div (Int64.of_int 63) 8L) 1L) in
  ignore n_inputs;
  let n_inputs = t.params.Minic.Randomfuns.input_size in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs } in
  let ctx =
    Symex.Engine.make_ctx ~goal:Symex.Engine.G_secret
      ~budget:{ Symex.Engine.default_budget with wall_seconds = 60.0 } tgt
  in
  let witness = Array.init n_inputs (fun i ->
      Int64.to_int (Int64.logand (Int64.shift_right_logical input (8 * i)) 0xFFL))
  in
  let st, _, outcome = Symex.Engine.concolic_path ctx witness in
  match outcome with
  | `Halt ->
    let ev = E.evaluator ~input:(Symex.Solver.input_of_model witness) in
    let sym = ev (Symex.Sym_state.get st X86.Isa.RAX) in
    let conc = (Runner.call_exn ~fuel:200_000_000 img ~func:"target" ~args:[ input ]).Runner.rax in
    sym = conc
  | `Fault _ -> false
  | `Fuel -> true   (* inconclusive: P3-heavy chains can outlast the budget *)

let corpus_lazy = lazy (Minic.Randomfuns.corpus ())

let prop_sym_concrete_native =
  QCheck.Test.make ~name:"symbolic = concrete (native)" ~count:25
    QCheck.(pair (int_range 0 71) (map Int64.of_int int))
    (fun (idx, input) ->
       let t = List.nth (Lazy.force corpus_lazy) idx in
       sym_matches_concrete t (Int64.logand input t.Minic.Randomfuns.input_mask))

let prop_sym_concrete_rop =
  QCheck.Test.make ~name:"symbolic = concrete (ROP+P1+P3)" ~count:10
    QCheck.(pair (int_range 0 71) (map Int64.of_int int))
    (fun (idx, input) ->
       let t = List.nth (Lazy.force corpus_lazy) idx in
       sym_matches_concrete ~config:(Ropc.Config.rop_k 0.25) t
         (Int64.logand input t.Minic.Randomfuns.input_mask))

(* --- end-to-end attacks ----------------------------------------------------- *)

let scaled_fun ~input_size ~control_index =
  Minic.Randomfuns.generate
    (Minic.Randomfuns.default_params ~loop_size:5 ~seed:1 ~input_size
       ~control_index ())

let test_dse_cracks_native () =
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let budget = { Symex.Engine.default_budget with wall_seconds = 10.0 } in
  let r = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt in
  match r.Symex.Engine.secret_input with
  | Some m ->
    let got = (Runner.call_exn img ~func:"target" ~args:[ Int64.of_int m.(0) ]).Runner.rax in
    Alcotest.(check int64) "accepted" 1L got
  | None -> Alcotest.fail "DSE failed on an unobfuscated 1-byte target"

let test_se_cracks_native () =
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let budget = { Symex.Engine.default_budget with wall_seconds = 10.0 } in
  let r = Symex.Engine.se ~goal:Symex.Engine.G_secret ~budget tgt in
  Alcotest.(check bool) "found" true (r.Symex.Engine.secret_input <> None)

let test_dse_coverage_native () =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:5 ~seed:2 ~input_size:1
         ~control_index:1 ~point_test:false ~coverage_probes:true ())
  in
  let img = Minic.Codegen.compile t.prog in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let budget = { Symex.Engine.default_budget with wall_seconds = 10.0 } in
  let r = Symex.Engine.dse ~goal:Symex.Engine.G_coverage ~budget tgt in
  Alcotest.(check bool)
    (Printf.sprintf "covered %d/%d" (Hashtbl.length r.Symex.Engine.covered) t.n_probes)
    true
    (Hashtbl.length r.Symex.Engine.covered >= t.n_probes - 1)

let test_dse_slowed_by_rop () =
  (* the headline effect: a target DSE cracks fast natively resists when
     ROP-encoded with P1+P3 *)
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let budget = { Symex.Engine.default_budget with wall_seconds = 3.0 } in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let r_native = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt in
  Alcotest.(check bool) "native cracked" true (r_native.Symex.Engine.secret_input <> None);
  let rw =
    Ropc.Rewriter.rewrite img ~functions:[ "target" ]
      ~config:(Ropc.Config.rop_k 1.0)
  in
  let tgtr =
    { Symex.Engine.img = rw.Ropc.Rewriter.image; func = "target"; n_inputs = 1 }
  in
  let r_rop = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgtr in
  (* either not cracked, or took markedly longer *)
  Alcotest.(check bool) "rop resists or is much slower" true
    (r_rop.Symex.Engine.secret_input = None
     || r_rop.Symex.Engine.time > 5.0 *. r_native.Symex.Engine.time)

(* --- one instruction: concrete machine vs symbolic stepper ------------------ *)

(* Both steppers are instances of Machine.Semantics.Make; from the same
   concrete registers and flags, one instruction must leave both in the same
   state.  Shifts cover every op, width and immediate count (a masked count
   of 0 must leave flags and destination alone; narrow rotates take the
   count mod the width).  A count in cl is also run with a symbolic cl, so
   the stepper's unknown-count path is checked against the machine too. *)

type one_case = {
  oc_instr : X86.Isa.instr;
  oc_regs : int64 array;                 (* by Isa.reg_index *)
  oc_flags : bool array;                 (* cf zf sf of pf *)
}

let gen_one_case =
  let open QCheck.Gen in
  let open X86.Isa in
  let reg = map reg_of_index (int_bound 15) in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let cc = map cc_of_index (int_bound 15) in
  let shift =
    let* o = oneofl [ Shl; Shr; Sar; Rol; Ror ] in
    let* w = width in
    let* r = reg in
    let* c =
      frequency [ (4, map (fun n -> S_imm n) (int_bound 63)); (1, return S_cl) ]
    in
    return (Shift (o, w, Reg r, c))
  in
  let other =
    oneof
      [ (let* o = oneofl [ Add; Adc; Sub; Sbb; Cmp; And; Or; Xor; Test ] in
         let* w = width in
         let* d = reg in
         let* s = reg in
         return (Alu (o, w, Reg d, Reg s)));
        (let* o = oneofl [ Neg; Not; Inc; Dec ] in
         let* w = width in
         let* d = reg in
         return (Unary (o, w, Reg d)));
        (let* w = width in
         let* d = reg in
         let* s = reg in
         return (Imul2 (w, d, Reg s)));
        (let* dw, sw = oneofl ext_combos in
         let* d = reg in
         let* s = reg in
         let* zx = bool in
         return
           (if zx then Movzx (dw, sw, d, Reg s) else Movsx (dw, sw, d, Reg s)));
        oneofl [ Lahf; Sahf ];
        (let* c = cc in
         let* d = reg in
         let* s = reg in
         return (Cmov (c, d, Reg s)));
        (let* c = cc in
         let* d = reg in
         return (Setcc (c, Reg d)));
        (let* w = width in
         let* a = reg in
         let* b = reg in
         return (Xchg (w, Reg a, Reg b)));
        (let* o = oneofl [ Mul; Imul1 ] in
         let* s = reg in
         return (MulDiv (o, Reg s))) ]
  in
  let* oc_instr = frequency [ (1, shift); (1, other) ] in
  let* regs = array_repeat 16 (map Int64.of_int int) in
  (* small values too, so shifted-out bits and zero results are common *)
  let* small = array_repeat 16 (int_bound 300) in
  let* use_small = array_repeat 16 bool in
  let oc_regs =
    Array.init 16 (fun i ->
        if use_small.(i) then Int64.of_int small.(i) else regs.(i))
  in
  let* oc_flags = array_repeat 5 bool in
  return { oc_instr; oc_regs; oc_flags }

let print_one_case c =
  let open X86.Isa in
  let width =
    match c.oc_instr with
    | Shift (_, w, _, _) | Alu (_, w, _, _) | Unary (_, w, _) | Imul2 (w, _, _)
    | Xchg (w, _, _) | Movzx (w, _, _, _) | Movsx (w, _, _, _) ->
      X86.Pp.width_name w ^ " "
    | _ -> ""
  in
  Printf.sprintf "%s%s regs=[%s] flags(cf zf sf of pf)=[%s]" width
    (X86.Pp.instr_str c.oc_instr)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%Lx") c.oc_regs)))
    (String.concat " " (Array.to_list (Array.map string_of_bool c.oc_flags)))

let one_case_code = 0x400000L

let one_case_memory c =
  let mem = Machine.Memory.create () in
  Machine.Memory.store_bytes mem one_case_code
    (X86.Encode.encode_list [ c.oc_instr ]);
  mem

(* Registers and flags after one Ref-engine step. *)
let one_concrete c =
  let cpu = Machine.Cpu.create (one_case_memory c) in
  Machine.Cpu.set_rip cpu one_case_code;
  Array.iteri (fun i v -> Machine.Cpu.set cpu (X86.Isa.reg_of_index i) v) c.oc_regs;
  (match c.oc_flags with
   | [| cf; zf; sf; o_f; pf |] ->
     cpu.Machine.Cpu.cf <- cf; cpu.Machine.Cpu.zf <- zf;
     cpu.Machine.Cpu.sf <- sf; cpu.Machine.Cpu.o_f <- o_f;
     cpu.Machine.Cpu.pf <- pf
   | _ -> assert false);
  let t = Machine.Exec.make ~engine:Machine.Exec.Ref cpu in
  ignore (Machine.Exec.run ~fuel:1 t);
  let f = Machine.Cpu.flags cpu in
  ( Array.init 16 (fun i -> Machine.Cpu.get cpu (X86.Isa.reg_of_index i)),
    [| f.cf; f.zf; f.sf; f.o_f; f.pf |] )

(* The same step on the symbolic stepper.  With [sym_cl], cl is the input
   byte (holding the concrete cl) instead of a constant, and every result
   is evaluated under that input. *)
let one_symbolic ~sym_cl c =
  let module S = Symex.Sym_state in
  let st = S.create (one_case_memory c) one_case_code in
  Array.iteri (fun i v -> S.set st (X86.Isa.reg_of_index i) (E.Const v)) c.oc_regs;
  let b v = if v then E.one else E.zero in
  (match c.oc_flags with
   | [| cf; zf; sf; o_f; pf |] ->
     st.S.f_cf <- b cf; st.S.f_zf <- b zf; st.S.f_sf <- b sf;
     st.S.f_of <- b o_f; st.S.f_pf <- b pf
   | _ -> assert false);
  let rcx = c.oc_regs.(X86.Isa.reg_index X86.Isa.RCX) in
  if sym_cl then
    S.set st X86.Isa.RCX
      (E.bin E.Or (E.Const (Int64.logand rcx (-256L))) (E.Input 0));
  let model =
    { S.toa = false; concretize = (fun _ _ -> None); on_write = (fun _ _ -> ()) }
  in
  let outcome = S.step ~model ~decode_cache:(Hashtbl.create 1) st in
  let ev = E.eval ~input:(fun _ -> Int64.to_int (Int64.logand rcx 0xFFL)) in
  ( outcome = S.O_ok,
    Array.init 16 (fun i -> ev (S.get st (X86.Isa.reg_of_index i))),
    Array.map (fun e -> ev e = 1L)
      [| st.S.f_cf; st.S.f_zf; st.S.f_sf; st.S.f_of; st.S.f_pf |] )

let prop_one_instruction =
  QCheck.Test.make ~name:"concrete = symbolic, one instruction" ~count:4000
    (QCheck.make ~print:print_one_case gen_one_case)
    (fun c ->
       let regs, flags = one_concrete c in
       let agrees sym_cl =
         let ok, sregs, sflags = one_symbolic ~sym_cl c in
         ok && sregs = regs && sflags = flags
       in
       agrees false
       && (match c.oc_instr with
           | X86.Isa.Shift (_, _, _, X86.Isa.S_cl) -> agrees true
           | _ -> true))

(* --- adversarial inputs: contradictions, faults, budget exhaustion ----------- *)

let test_contradictory_constraints () =
  (* a satisfiable condition asserted both ways can have no model *)
  let e =
    E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 0xFFL)) (E.Const 3L)
  in
  Alcotest.(check bool) "contradiction is unsat" true
    (Symex.Solver.solve ~n_inputs:1 ~max_evals:5_000
       [ { Symex.Solver.cond = e; want = true };
         { Symex.Solver.cond = e; want = false } ]
     = None)

(* target: idiv of min_int by (input - 2).  input=1 divides by -1 and
   overflows #DE; input=2 divides by zero; input=0 divides by -2 and
   returns cleanly. *)
let div_fault_image () =
  let open X86.Isa in
  let body =
    [ Mov (W64, Reg RAX, Imm Int64.min_int);
      Mov (W64, Reg RCX, Reg RDI);
      Alu (Sub, W64, Reg RCX, Imm 2L);
      Mov (W64, Reg RDX, Reg RAX);
      Shift (Sar, W64, Reg RDX, S_imm 63);
      MulDiv (Idiv, Reg RCX);
      Ret ]
  in
  let text = X86.Encode.encode_list body in
  let img = Image.create () in
  ignore
    (Image.add_section img ~name:".text" ~addr:Image.text_base ~data:text
       ~writable:false ~executable:true);
  Image.add_symbol img ~is_function:true ~name:"target" ~addr:Image.text_base
    ~size:(Bytes.length text) ();
  img

let test_div_overflow_fault_paths () =
  let img = div_fault_image () in
  (* the concrete machine's verdicts *)
  let conc arg = (Runner.call img ~func:"target" ~args:[ arg ]).Runner.status in
  Alcotest.(check bool) "concrete overflow" true
    (conc 1L = Machine.Exec.Fault "divide overflow");
  Alcotest.(check bool) "concrete divide by zero" true
    (conc 2L = Machine.Exec.Fault "divide by zero");
  Alcotest.(check bool) "concrete clean path" true
    (conc 0L = Machine.Exec.Halted);
  (* the concolic stepper must fault in exactly the same places *)
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let ctx =
    Symex.Engine.make_ctx ~goal:Symex.Engine.G_secret
      ~budget:{ Symex.Engine.default_budget with wall_seconds = 10.0 } tgt
  in
  let outcome w =
    let _, _, o = Symex.Engine.concolic_path ctx [| w |] in
    o
  in
  Alcotest.(check bool) "symbolic overflow fault" true
    (outcome 1 = `Fault "divide overflow");
  Alcotest.(check bool) "symbolic divide-by-zero fault" true
    (outcome 2 = `Fault "divide by zero");
  Alcotest.(check bool) "symbolic clean path" true (outcome 0 = `Halt)

let test_budget_exhaustion_returns_unknown () =
  (* a P1-hardened target under a ~50 ms budget: the engine must come back
     with Unknown (no secret, timed_out set) instead of spinning *)
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let rw =
    Ropc.Rewriter.rewrite img ~functions:[ "target" ]
      ~config:(Ropc.Config.rop_k 1.0)
  in
  let tgt =
    { Symex.Engine.img = rw.Ropc.Rewriter.image; func = "target";
      n_inputs = 1 }
  in
  let budget = { Symex.Engine.default_budget with wall_seconds = 0.05 } in
  let t0 = Unix.gettimeofday () in
  let r = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "no secret under an impossible deadline" true
    (r.Symex.Engine.secret_input = None);
  Alcotest.(check bool) "timed_out reported" true
    r.Symex.Engine.stats.Symex.Engine.timed_out;
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.2fs)" elapsed)
    true (elapsed < 10.0)

let test_oversized_query_refused () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  (* individually satisfiable (any input >= 8 works), but one constraint past
     the solver's refusal threshold *)
  let cs =
    List.init (Symex.Solver.max_constraints + 1) (fun i ->
        { Symex.Solver.cond =
            E.bin E.Eq (E.Input 0) (E.Const (Int64.of_int (i mod 8)));
          want = false })
  in
  let t0 = Unix.gettimeofday () in
  let r = Symex.Solver.solve ~n_inputs:1 ~max_evals:60_000 cs in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "refused, not solved" true (r = None);
  Alcotest.(check bool)
    (Printf.sprintf "refused outright (%.2fs)" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "refusal is visible in metrics" true
    (List.assoc_opt "symex.solver.refused_oversized"
       (Obs.Metrics.snapshot ())
     = Some (Obs.Metrics.Counter 1));
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ()

let () =
  Alcotest.run "symex"
    [ ("expr",
       List.map QCheck_alcotest.to_alcotest
         [ prop_eval_matches_compiled; prop_solver_sound ]);
      ("solver",
       [ Alcotest.test_case "eq inversion" `Quick test_solver_finds_eq;
         Alcotest.test_case "unsat" `Quick test_solver_unsat ]);
      ("stepper",
       List.map QCheck_alcotest.to_alcotest
         [ prop_sym_concrete_native; prop_sym_concrete_rop;
           prop_one_instruction ]);
      ("adversarial",
       [ Alcotest.test_case "contradictory constraints" `Quick
           test_contradictory_constraints;
         Alcotest.test_case "div fault paths" `Quick
           test_div_overflow_fault_paths;
         Alcotest.test_case "budget exhaustion -> unknown" `Quick
           test_budget_exhaustion_returns_unknown;
         Alcotest.test_case "oversized query refused" `Quick
           test_oversized_query_refused ]);
      ("attacks",
       [ Alcotest.test_case "dse cracks native" `Slow test_dse_cracks_native;
         Alcotest.test_case "se cracks native" `Slow test_se_cracks_native;
         Alcotest.test_case "dse coverage native" `Slow test_dse_coverage_native;
         Alcotest.test_case "rop slows dse" `Slow test_dse_slowed_by_rop ]) ]

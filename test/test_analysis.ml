(* Tests for CFG reconstruction and liveness on compiler output. *)

open Minic.Ast

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
    [ func ~params:[ "n" ] "classify"
        [ Switch (v "n",
                  [ (0, [ Return (c 100) ]); (1, [ Return (c 101) ]);
                    (2, [ Return (c 102) ]); (3, [ Return (c 103) ]);
                    (4, [ Return (c 104) ]); (6, [ Return (c 106) ]) ],
                  [ Return (c (-1)) ]) ] ]

let test_cfg_fact () =
  let img = Minic.Codegen.compile fact_prog in
  let cfg = Analysis.Cfg.of_image img "fact" in
  Alcotest.(check bool) "not failed" false cfg.Analysis.Cfg.failed;
  Alcotest.(check bool) "several blocks" true (List.length cfg.Analysis.Cfg.order >= 3);
  (* entry block exists and every successor is a known block *)
  List.iter
    (fun a ->
       let b = Analysis.Cfg.block_exn cfg a in
       List.iter
         (fun s -> ignore (Analysis.Cfg.block_exn cfg s))
         (Analysis.Cfg.successors b))
    cfg.Analysis.Cfg.order;
  (* exactly one ret block for this function *)
  let rets =
    List.filter
      (fun a ->
         match (Analysis.Cfg.block_exn cfg a).Analysis.Cfg.b_term with
         | Analysis.Cfg.T_ret -> true
         | _ -> false)
      cfg.Analysis.Cfg.order
  in
  Alcotest.(check bool) "has ret block" true (List.length rets >= 1)

let test_cfg_switch_table () =
  let img = Minic.Codegen.compile switch_prog in
  let cfg = Analysis.Cfg.of_image img "classify" in
  Alcotest.(check bool) "not failed" false cfg.Analysis.Cfg.failed;
  let tables =
    List.filter_map
      (fun a ->
         match (Analysis.Cfg.block_exn cfg a).Analysis.Cfg.b_term with
         | Analysis.Cfg.T_jmp_table { entries; _ } -> Some (List.length entries)
         | _ -> None)
      cfg.Analysis.Cfg.order
  in
  match tables with
  | [ n ] ->
    (* cases 0..6 -> 7 table entries *)
    Alcotest.(check int) "table entries" 7 n
  | _ -> Alcotest.failf "expected exactly one jump table, found %d" (List.length tables)

let test_liveness_flags () =
  let img = Minic.Codegen.compile fact_prog in
  let cfg = Analysis.Cfg.of_image img "fact" in
  let live = Analysis.Liveness.compute cfg in
  (* find a cmp/test instruction whose block ends with jcc: flags must be
     live after it *)
  let found = ref false in
  List.iter
    (fun a ->
       let b = Analysis.Cfg.block_exn cfg a in
       match b.Analysis.Cfg.b_term with
       | Analysis.Cfg.T_jcc _ ->
         (match List.rev b.Analysis.Cfg.b_instrs with
          | last :: _ ->
            if Analysis.Reguse.clobbers_flags last.Analysis.Cfg.instr then begin
              found := true;
              Alcotest.(check bool) "flags live after test"
                true (Analysis.Liveness.flags_live_after live last.Analysis.Cfg.addr)
            end
          | [] -> ())
       | _ -> ())
    cfg.Analysis.Cfg.order;
  Alcotest.(check bool) "found a flag-setting instr before jcc" true !found

let test_liveness_param () =
  (* at entry, the parameter register RDI must be live *)
  let img = Minic.Codegen.compile fact_prog in
  let cfg = Analysis.Cfg.of_image img "fact" in
  let live = Analysis.Liveness.compute cfg in
  let entry_block = Analysis.Cfg.block_exn cfg cfg.Analysis.Cfg.entry in
  match entry_block.Analysis.Cfg.b_instrs with
  | first :: _ ->
    let out = Analysis.Liveness.live_out_at live first.Analysis.Cfg.addr in
    (* after 'push rbp', rdi (param n) still live *)
    Alcotest.(check bool) "rdi live at entry" true
      (Analysis.Regset.mem_reg out X86.Isa.RDI)
  | [] -> Alcotest.fail "empty entry block"

(* --- hand-built fixtures -------------------------------------------------- *)

(* Tiny raw-assembly functions make the expected live sets checkable by eye,
   unlike compiler output where the answer depends on codegen choices. *)

let link_fn name items =
  Asm.link { Asm.u_functions = [ (name, items) ]; Asm.u_data = [] }

(* Address of the first instruction in the function satisfying [p]. *)
let find_instr cfg p =
  let found = ref None in
  List.iter
    (fun a ->
       let b = Analysis.Cfg.block_exn cfg a in
       List.iter
         (fun (bi : Analysis.Cfg.binstr) ->
            if !found = None && p bi.Analysis.Cfg.instr then
              found := Some bi.Analysis.Cfg.addr)
         b.Analysis.Cfg.b_instrs)
    cfg.Analysis.Cfg.order;
  match !found with
  | Some a -> a
  | None -> Alcotest.fail "fixture instruction not found"

(* cmp feeding a jcc: flags live exactly between them, dead past the join *)
let test_fixture_jcc_flags () =
  let open X86.Isa in
  let img =
    link_fn "f"
      [ Asm.Ins (Alu (Cmp, W64, Reg RDI, Imm 5L));
        Asm.Jcc_l (E, "yes");
        Asm.Ins (Mov (W64, Reg RAX, Imm 1L));
        Asm.Ins Ret;
        Asm.Label "yes";
        Asm.Ins (Mov (W64, Reg RAX, Imm 2L));
        Asm.Ins Ret ]
  in
  let cfg = Analysis.Cfg.of_image img "f" in
  Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed;
  let live = Analysis.Liveness.compute cfg in
  let cmp_addr =
    find_instr cfg (function Alu (Cmp, _, _, _) -> true | _ -> false)
  in
  let mov1_addr =
    find_instr cfg (function Mov (_, _, Imm 1L) -> true | _ -> false)
  in
  Alcotest.(check bool) "flags live after cmp" true
    (Analysis.Liveness.flags_live_after live cmp_addr);
  Alcotest.(check bool) "flags dead past the branch" false
    (Analysis.Liveness.flags_live_after live mov1_addr);
  (* rdi fed the cmp; once both arms only return constants it is dead *)
  Alcotest.(check bool) "rdi dead in ret arm" false
    (Analysis.Regset.mem_reg
       (Analysis.Liveness.live_out_at live mov1_addr) X86.Isa.RDI)

(* a jump out of the function is a tail call: argument registers must be
   treated as live at it, unlike at a plain ret *)
let test_fixture_tail_args () =
  let open X86.Isa in
  let img =
    link_fn "caller"
      [ Asm.Ins (Mov (W64, Reg RDI, Imm 7L));
        Asm.Ins (Mov (W64, Reg RAX, Imm 0L));
        (* out-of-bounds rel32: classified T_tail, target irrelevant *)
        Asm.Ins (Jmp (J_rel 0x100)) ]
  in
  let cfg = Analysis.Cfg.of_image img "caller" in
  Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed;
  let live = Analysis.Liveness.compute cfg in
  let mov_rdi =
    find_instr cfg
      (function Mov (_, Reg RDI, _) -> true | _ -> false)
  in
  Alcotest.(check bool) "rdi (arg) live through the tail call" true
    (Analysis.Regset.mem_reg
       (Analysis.Liveness.live_out_at live mov_rdi) X86.Isa.RDI)

(* a register read only inside the loop body must stay live across the
   back edge: one forward sweep gets this wrong, the fixpoint does not *)
let test_fixture_loop_backedge () =
  let open X86.Isa in
  let img =
    link_fn "loopf"
      [ Asm.Ins (Mov (W64, Reg RAX, Imm 0L));
        Asm.Label "head";
        Asm.Ins (Alu (Add, W64, Reg RAX, Reg RDI));
        Asm.Ins (Unary (Dec, W64, Reg RCX));
        Asm.Jcc_l (NE, "head");
        Asm.Ins Ret ]
  in
  let cfg = Analysis.Cfg.of_image img "loopf" in
  Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed;
  let live = Analysis.Liveness.compute cfg in
  let dec_addr =
    find_instr cfg (function Unary (Dec, _, _) -> true | _ -> false)
  in
  let out = Analysis.Liveness.live_out_at live dec_addr in
  (* rdi is only read at the top of the loop: it reaches the bottom's
     live-out exclusively around the back edge *)
  Alcotest.(check bool) "rdi live around back edge" true
    (Analysis.Regset.mem_reg out X86.Isa.RDI);
  Alcotest.(check bool) "rcx live around back edge" true
    (Analysis.Regset.mem_reg out X86.Isa.RCX);
  Alcotest.(check bool) "flags live into jcc" true
    (Analysis.Liveness.flags_live_after live dec_addr);
  (* and the loop-carried uses propagate to the function entry *)
  let entry_mov =
    find_instr cfg (function Mov (_, Reg RAX, _) -> true | _ -> false)
  in
  Alcotest.(check bool) "rdi live at entry" true
    (Analysis.Regset.mem_reg
       (Analysis.Liveness.live_out_at live entry_mov) X86.Isa.RDI)

(* a jump-table case with no terminator falls through into the next case:
   the fall-through block is reachable both through the table and linearly,
   and the fixpoint must merge the two flows at it *)
let test_fixture_table_fallthrough () =
  let open X86.Isa in
  let img =
    link_fn "jt"
      [ Asm.Ins (Alu (Cmp, W64, Reg RDI, Imm 2L));
        Asm.Jcc_l (A, "default");
        Asm.Lea_l (RSI, "table");
        Asm.Ins
          (Mov (W64, Reg RSI,
                Mem { base = Some RSI; index = Some (RDI, 8); disp = 0L }));
        Asm.Ins (Jmp (J_op (Reg RSI)));
        Asm.Label "table";
        Asm.Quad_l "case0";
        Asm.Quad_l "case1";
        Asm.Quad_l "case2";
        Asm.Label "case0";
        Asm.Ins (Mov (W64, Reg RAX, Imm 10L));
        (* deliberately no jump: falls through into case1 *)
        Asm.Label "case1";
        Asm.Ins (Alu (Add, W64, Reg RAX, Imm 1L));
        Asm.Ins Ret;
        Asm.Label "case2";
        Asm.Ins (Mov (W64, Reg RAX, Imm 30L));
        Asm.Ins Ret;
        Asm.Label "default";
        Asm.Ins (Mov (W64, Reg RAX, Imm 0L));
        Asm.Ins Ret ]
  in
  let cfg = Analysis.Cfg.of_image img "jt" in
  Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed;
  let entries =
    List.find_map
      (fun a ->
         match (Analysis.Cfg.block_exn cfg a).Analysis.Cfg.b_term with
         | Analysis.Cfg.T_jmp_table { entries; _ } -> Some entries
         | _ -> None)
      cfg.Analysis.Cfg.order
  in
  match entries with
  | Some [ a0; a1; _a2 ] ->
    (* case0 must end in a fall edge into case1, which is itself a table
       target: two distinct predecessors kinds for one block *)
    (match (Analysis.Cfg.block_exn cfg a0).Analysis.Cfg.b_term with
     | Analysis.Cfg.T_fall t ->
       Alcotest.(check int64) "falls into case1" a1 t
     | _ -> Alcotest.fail "case0 should fall through");
    (* liveness still converges over the merged flows *)
    let live = Analysis.Liveness.compute cfg in
    let mov10 =
      find_instr cfg (function Mov (_, _, Imm 10L) -> true | _ -> false)
    in
    (* rax written in case0 is read by case1's add: live across the fall *)
    Alcotest.(check bool) "rax live across fall edge" true
      (Analysis.Regset.mem_reg
         (Analysis.Liveness.live_out_at live mov10) X86.Isa.RAX)
  | Some es -> Alcotest.failf "expected 3 table entries, got %d" (List.length es)
  | None -> Alcotest.fail "no jump table recognized"

(* a direct jump into the immediate payload of a wide mov: the decoder keeps
   both decodings, yielding physically overlapping blocks at unaligned
   addresses — the same shape gadget confusion relies on (§V-D) *)
let test_fixture_overlapping_blocks () =
  let open X86.Isa in
  (* imm32 bytes [0x01; 0x02; 0x00; 0x00] decode as nop; ret at +3 *)
  let mov = Mov (W64, Reg RAX, Imm 0x201L) in
  let mov_len = Bytes.length (X86.Encode.encode mov) in
  let img =
    (* jmp rel targets mov_start+3, i.e. the imm payload *)
    link_fn "ov" [ Asm.Ins mov; Asm.Ins (Jmp (J_rel (3 - (mov_len + 5)))) ]
  in
  let cfg = Analysis.Cfg.of_image img "ov" in
  Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed;
  let entry = cfg.Analysis.Cfg.entry in
  let inner = Int64.add entry 3L in
  let b_entry = Analysis.Cfg.block_exn cfg entry in
  let b_inner = Analysis.Cfg.block_exn cfg inner in
  (* the inner block starts strictly inside the entry block's first instr *)
  (match b_entry.Analysis.Cfg.b_instrs with
   | first :: _ ->
     Alcotest.(check bool) "blocks overlap" true
       (Int64.compare inner (Analysis.Cfg.next_addr first) < 0)
   | [] -> Alcotest.fail "empty entry block");
  (* and decodes to nop; ret carved out of the immediate *)
  (match b_inner.Analysis.Cfg.b_instrs, b_inner.Analysis.Cfg.b_term with
   | [ { Analysis.Cfg.instr = Nop; _ } ], Analysis.Cfg.T_ret -> ()
   | _ -> Alcotest.fail "inner block should decode as nop; ret");
  ignore (Analysis.Liveness.compute cfg)

(* a function with no ret at all: every path loops forever.  The liveness
   fixpoint must still converge (the back edge is the only flow), and so
   must a counting domain under the engine's widening backstop *)
let test_fixture_retless_loop () =
  let open X86.Isa in
  let img =
    link_fn "spin"
      [ Asm.Ins (Mov (W64, Reg RAX, Imm 0L));
        Asm.Label "head";
        Asm.Ins (Alu (Add, W64, Reg RAX, Reg RDI));
        Asm.Jmp_l "head" ]
  in
  let cfg = Analysis.Cfg.of_image img "spin" in
  Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed;
  let rets =
    List.filter
      (fun a ->
         (Analysis.Cfg.block_exn cfg a).Analysis.Cfg.b_term = Analysis.Cfg.T_ret)
      cfg.Analysis.Cfg.order
  in
  Alcotest.(check int) "no ret blocks" 0 (List.length rets);
  let live = Analysis.Liveness.compute cfg in
  (* rdi is read every iteration: live around the back edge forever *)
  let add_addr =
    find_instr cfg (function Alu (Add, _, _, _) -> true | _ -> false)
  in
  Alcotest.(check bool) "rdi live in endless loop" true
    (Analysis.Regset.mem_reg
       (Analysis.Liveness.live_out_at live add_addr) X86.Isa.RDI);
  (* drive the generic engine over the same CFG with an unbounded counting
     domain: without widening the trip count would climb forever; the
     engine's widen_after cutoff must force convergence, not Divergence *)
  let module Count = struct
    type t = Bounded of int | Inf
    let equal = ( = )
    let join a b =
      match a, b with
      | Inf, _ | _, Inf -> Inf
      | Bounded x, Bounded y -> Bounded (max x y)
    let widen old joined = if equal old joined then old else Inf
  end in
  let module FP = Staticanalysis.Fixpoint.Make
      (Staticanalysis.Fixpoint.Int64_node) (Count)
  in
  let res =
    FP.solve
      ~entries:[ (cfg.Analysis.Cfg.entry, Count.Bounded 0) ]
      ~transfer:(fun a st ->
          let b = Analysis.Cfg.block_exn cfg a in
          let st' =
            match st with
            | Count.Inf -> Count.Inf
            | Count.Bounded n -> Count.Bounded (n + 1)
          in
          List.map (fun s -> (s, st')) (Analysis.Cfg.successors b))
      ()
  in
  Alcotest.(check bool) "widening fired" true
    (res.FP.stats.Staticanalysis.Fixpoint.widenings > 0);
  let head =
    List.find (fun a -> a <> cfg.Analysis.Cfg.entry) cfg.Analysis.Cfg.order
  in
  Alcotest.(check bool) "loop head widened to top" true
    (FP.H.find_opt res.FP.state head = Some Count.Inf)

let test_cfg_randomfuns () =
  (* CFG reconstruction succeeds on the whole corpus *)
  let corpus = Minic.Randomfuns.corpus () in
  List.iter
    (fun (t : Minic.Randomfuns.t) ->
       let img = Minic.Codegen.compile t.prog in
       let cfg = Analysis.Cfg.of_image img "target" in
       Alcotest.(check bool) "cfg ok" false cfg.Analysis.Cfg.failed)
    corpus

(* --- def/use against the reference stepper ------------------------------ *)

(* Non-interference: two states that agree on an instruction's uses must,
   after one reference step, agree on its defs (the flags included when
   they are a def), on rip, on whether the step faults and on the data
   pages, and each must leave every register outside the defs as it was,
   and the flags too when the instruction may write none.  Memory starts
   equal; registers often point into the data pages, so memory operands
   resolve as well as fault. *)

module R = Analysis.Regset

let ni_data = 0x10000L
let ni_data_len = 0x4000

type ni_case = {
  ni_instr : X86.Isa.instr;
  ni_regs : int64 array;        (* state A, by Isa.reg_index *)
  ni_flags : bool array;        (* cf zf sf of pf *)
  ni_other : int64 array;       (* state B's registers outside the uses *)
  ni_other_flags : bool array;  (* state B's flags unless they are a use *)
}

(* Every instruction form, at every width and operand kind. *)
let gen_ni_instr =
  let open QCheck.Gen in
  let open X86.Isa in
  let reg = map reg_of_index (int_bound 15) in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let cc = map cc_of_index (int_bound 15) in
  let mem =
    let* base = opt ~ratio:0.9 reg in
    let* index = opt ~ratio:0.4 (pair reg (oneofl [ 1; 2; 4; 8 ])) in
    let* disp = map Int64.of_int (int_range (-64) 64) in
    return { base; index; disp }
  in
  let imm =
    oneof [ map Int64.of_int (int_range (-300) 300); map Int64.of_int int ]
  in
  let dst = oneof [ map (fun r -> Reg r) reg; map (fun m -> Mem m) mem ] in
  let src = frequency [ (2, dst); (1, map (fun v -> Imm v) imm) ] in
  let dst_src =
    let* d = dst in
    let* s = src in
    return (match d, s with Mem _, Mem _ -> (d, Reg RAX) | _ -> (d, s))
  in
  let rel = int_range (-64) 64 in
  oneof
    [ oneofl [ Nop; Hlt; Lahf; Sahf; Ret; Leave ];
      (let* w = width in
       let* d, s = dst_src in
       return (Mov (w, d, s)));
      (let* dw, sw = oneofl ext_combos in
       let* r = reg in
       let* s = dst in
       let* zx = bool in
       return (if zx then Movzx (dw, sw, r, s) else Movsx (dw, sw, r, s)));
      (let* r = reg in
       let* m = mem in
       return (Lea (r, m)));
      map (fun s -> Push s) src;
      map (fun d -> Pop d) dst;
      (let* o = oneofl [ Add; Sub; And; Or; Xor; Adc; Sbb; Cmp; Test ] in
       let* w = width in
       let* d, s = dst_src in
       return (Alu (o, w, d, s)));
      (let* o = oneofl [ Neg; Not; Inc; Dec ] in
       let* w = width in
       let* d = dst in
       return (Unary (o, w, d)));
      (let* w = width in
       let* r = reg in
       let* s = src in
       return (Imul2 (w, r, s)));
      (let* o = oneofl [ Mul; Imul1; Div; Idiv ] in
       let* s = dst in
       return (MulDiv (o, s)));
      (let* o = oneofl [ Shl; Shr; Sar; Rol; Ror ] in
       let* w = width in
       let* d = dst in
       let* c = oneof [ return S_cl; map (fun n -> S_imm n) (int_bound 70) ] in
       return (Shift (o, w, d, c)));
      (let* c = cc in
       let* r = reg in
       let* s = dst in
       return (Cmov (c, r, s)));
      (let* c = cc in
       let* d = dst in
       return (Setcc (c, d)));
      map (fun d -> Jmp (J_rel d)) rel;
      map (fun o -> Jmp (J_op o)) dst;
      (let* c = cc in
       let* d = rel in
       return (Jcc (c, d)));
      map (fun d -> Call (J_rel d)) rel;
      map (fun o -> Call (J_op o)) dst;
      (let* w = width in
       let* a = dst in
       let* b = map (fun r -> Reg r) reg in
       let* swap = bool in
       return (if swap then Xchg (w, b, a) else Xchg (w, a, b))) ]

(* pointers into the data pages, small counts and indices, edge values *)
let gen_ni_value =
  let open QCheck.Gen in
  frequency
    [ (3, map (fun k -> Int64.add 0x12000L (Int64.of_int k))
         (int_range (-0x800) 0x800));
      (2, map Int64.of_int (int_bound 15));
      (2, map Int64.of_int int);
      (1, oneofl
            [ 0L; 1L; -1L; 0x80L; 0xFFFFL; Int64.min_int; Int64.max_int ]) ]

let gen_ni_case =
  let open QCheck.Gen in
  let* ni_instr = gen_ni_instr in
  let* ni_regs = array_repeat 16 gen_ni_value in
  let* ni_flags = array_repeat 5 bool in
  let* ni_other = array_repeat 16 gen_ni_value in
  let* ni_other_flags = array_repeat 5 bool in
  return { ni_instr; ni_regs; ni_flags; ni_other; ni_other_flags }

let print_ni_case effects c =
  let hex a =
    String.concat " " (Array.to_list (Array.map (Printf.sprintf "%Lx") a))
  in
  let bits a =
    String.concat ""
      (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))
  in
  Printf.sprintf "%s (%s) A=[%s] flags %s; B outside uses=[%s] flags %s"
    (X86.Pp.instr_str c.ni_instr)
    (let uses, defs, flags_written = effects c.ni_instr in
     Format.asprintf "uses %a, defs %a%s" R.pp uses R.pp defs
       (if flags_written then ", may write flags" else ""))
    (hex c.ni_regs) (bits c.ni_flags) (hex c.ni_other) (bits c.ni_other_flags)

let ni_memory =
  let m = Machine.Memory.create () in
  Machine.Memory.map m ni_data ni_data_len;
  for k = 0 to (ni_data_len / 8) - 1 do
    Machine.Memory.write m
      (Int64.add ni_data (Int64.of_int (8 * k))) 8
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (k + 1)))
  done;
  m

(* One reference step from the given registers and flags, rip already
   past the instruction. *)
let ni_step instr regs flags =
  let cpu = Machine.Cpu.create (Machine.Memory.copy ni_memory) in
  Array.iteri (fun k v -> Machine.Cpu.set cpu (X86.Isa.reg_of_index k) v) regs;
  (match flags with
   | [| cf; zf; sf; o_f; pf |] ->
     cpu.Machine.Cpu.cf <- cf; cpu.Machine.Cpu.zf <- zf;
     cpu.Machine.Cpu.sf <- sf; cpu.Machine.Cpu.o_f <- o_f;
     cpu.Machine.Cpu.pf <- pf
   | _ -> assert false);
  Machine.Cpu.set_rip cpu 0x400000L;
  let outcome =
    match Machine.Exec.exec_instr cpu instr with
    | () -> Ok cpu.Machine.Cpu.halted
    | exception Machine.Exec.Exec_fault m -> Error m
    | exception Machine.Memory.Fault (a, m) ->
      Error (Printf.sprintf "%s 0x%Lx" m a)
  in
  let f = Machine.Cpu.flags cpu in
  ( outcome,
    Machine.Cpu.rip cpu,
    Array.init 16 (fun k -> Machine.Cpu.get cpu (X86.Isa.reg_of_index k)),
    [| f.cf; f.zf; f.sf; f.o_f; f.pf |],
    List.init (ni_data_len / Machine.Memory.page_size) (fun k ->
        Machine.Memory.read_string cpu.Machine.Cpu.mem
          (Int64.add ni_data (Int64.of_int (k * Machine.Memory.page_size)))
          Machine.Memory.page_size) )

let non_interference effects c =
  let uses, defs, flags_written = effects c.ni_instr in
  let regs_b =
    Array.init 16 (fun k ->
        if R.mem_reg uses (X86.Isa.reg_of_index k) then c.ni_regs.(k)
        else c.ni_other.(k))
  in
  let flags_b = if R.mem_flags uses then c.ni_flags else c.ni_other_flags in
  let out_a, rip_a, regs_a', flags_a', mem_a =
    ni_step c.ni_instr c.ni_regs c.ni_flags
  in
  let out_b, rip_b, regs_b', flags_b', mem_b =
    ni_step c.ni_instr regs_b flags_b
  in
  (* a faulting step stops part-way: its defs need not have been written *)
  let completed = Result.is_ok out_a in
  out_a = out_b && rip_a = rip_b && mem_a = mem_b
  && ((not (completed && R.mem_flags defs)) || flags_a' = flags_b')
  && (flags_written || (flags_a' = c.ni_flags && flags_b' = flags_b))
  && List.for_all
       (fun r ->
          let k = X86.Isa.reg_index r in
          if R.mem_reg defs r then (not completed) || regs_a'.(k) = regs_b'.(k)
          else regs_a'.(k) = c.ni_regs.(k) && regs_b'.(k) = regs_b.(k))
       X86.Isa.all_regs

(* Calls and returns are checked without their calling-convention entries,
   which the step itself cannot honour. *)
let machine_effects i =
  let e = Analysis.Reguse.machine_effects i in
  (e.Analysis.Reguse.uses, e.Analysis.Reguse.defs,
   e.Analysis.Reguse.flags_written)

let prop_non_interference ?(count = 20000) effects =
  QCheck.Test.make ~name:"def/use non-interference" ~count
    (QCheck.make ~print:(print_ni_case effects) gen_ni_case)
    (non_interference effects)

(* A copy of the hand-written def/use table the derived one replaced.  It
   treats 8/16-bit register writes as whole-register kills and mul, div
   and shifts by cl as writing every flag, so the property must refute
   it. *)
let old_def_use (i : X86.Isa.instr) =
  let open X86.Isa in
  let use_mem (m : mem) =
    let s = match m.base with Some r -> R.of_reg r | None -> R.empty in
    match m.index with Some (r, _) -> R.add s r | None -> s
  in
  let use_op = function
    | Reg r -> R.of_reg r | Imm _ -> R.empty | Mem m -> use_mem m
  in
  let use_addr = function Reg _ | Imm _ -> R.empty | Mem m -> use_mem m in
  let def_op = function Reg r -> R.of_reg r | Imm _ | Mem _ -> R.empty in
  match i with
  | Nop | Hlt -> (R.empty, R.empty)
  | Lahf -> (R.add_flags (R.of_reg RAX), R.of_reg RAX)
  | Sahf -> (R.of_reg RAX, R.flags_bit)
  | Mov (_, d, s) -> (R.union (use_op s) (use_addr d), def_op d)
  | Movzx (_, _, r, s) | Movsx (_, _, r, s) -> (use_op s, R.of_reg r)
  | Lea (r, m) -> (use_mem m, R.of_reg r)
  | Push s -> (R.add (use_op s) RSP, R.of_reg RSP)
  | Pop d -> (R.add (use_addr d) RSP, R.union (def_op d) (R.of_reg RSP))
  | Alu ((Cmp | Test), _, a, b) -> (R.union (use_op a) (use_op b), R.flags_bit)
  | Alu ((Adc | Sbb), _, d, s) ->
    (R.add_flags (R.union (use_op d) (use_op s)),
     R.union (def_op d) R.flags_bit)
  | Alu (_, _, d, s) ->
    (R.union (use_op d) (use_op s), R.union (def_op d) R.flags_bit)
  | Unary (Not, _, d) -> (use_op d, def_op d)
  | Unary (_, _, d) -> (use_op d, R.union (def_op d) R.flags_bit)
  | Imul2 (_, r, s) -> (R.add (use_op s) r, R.union (R.of_reg r) R.flags_bit)
  | MulDiv (_, s) ->
    (R.add (R.add (use_op s) RAX) RDX,
     R.union (R.of_list [ RAX; RDX ]) R.flags_bit)
  | Shift (_, _, d, c) ->
    let u = use_op d in
    let u = match c with S_cl -> R.add u RCX | S_imm _ -> u in
    (u, R.union (def_op d) R.flags_bit)
  | Cmov (_, r, s) -> (R.add_flags (R.add (use_op s) r), R.of_reg r)
  | Setcc (_, d) -> (R.add_flags (use_addr d), def_op d)
  | Jmp (J_rel _) -> (R.empty, R.empty)
  | Jmp (J_op o) -> (use_op o, R.empty)
  | Jcc _ -> (R.flags_bit, R.empty)
  | Call (J_rel _) ->
    (R.add R.arg_regs RSP, R.union (R.add R.caller_saved RSP) R.flags_bit)
  | Call (J_op o) ->
    (R.add (R.union (use_op o) R.arg_regs) RSP,
     R.union (R.add R.caller_saved RSP) R.flags_bit)
  | Ret -> (R.of_list [ RSP; RAX ], R.of_reg RSP)
  | Leave -> (R.of_list [ RBP; RSP ], R.of_list [ RBP; RSP ])
  | Xchg (_, a, b) ->
    (R.union (use_op a) (use_op b), R.union (def_op a) (def_op b))

let test_old_table_refuted () =
  match
    QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |])
      (prop_non_interference (fun i ->
           let uses, defs = old_def_use i in
           (uses, defs, R.mem_flags defs)))
  with
  | () -> Alcotest.fail "the hand-written table passed non-interference"
  | exception QCheck.Test.Test_fail _ -> ()

let () =
  Alcotest.run "analysis"
    [ ("cfg",
       [ Alcotest.test_case "factorial blocks" `Quick test_cfg_fact;
         Alcotest.test_case "switch jump table" `Quick test_cfg_switch_table;
         Alcotest.test_case "randomfuns corpus" `Slow test_cfg_randomfuns ]);
      ("liveness",
       [ Alcotest.test_case "flags live before jcc" `Quick test_liveness_flags;
         Alcotest.test_case "param live at entry" `Quick test_liveness_param;
         Alcotest.test_case "fixture: jcc flag window" `Quick
           test_fixture_jcc_flags;
         Alcotest.test_case "fixture: tail-call args" `Quick
           test_fixture_tail_args;
         Alcotest.test_case "fixture: loop back edge" `Quick
           test_fixture_loop_backedge ]);
      ("fixpoint-edges",
       [ Alcotest.test_case "jump-table fallthrough" `Quick
           test_fixture_table_fallthrough;
         Alcotest.test_case "overlapping unaligned blocks" `Quick
           test_fixture_overlapping_blocks;
         Alcotest.test_case "ret-less infinite loop widens" `Quick
           test_fixture_retless_loop ]);
      ("def-use",
       [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
           (prop_non_interference machine_effects);
         Alcotest.test_case "hand-written table refuted" `Quick
           test_old_table_refuted ]) ]

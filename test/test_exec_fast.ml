(* Cross-engine differential tests: the block-translating fast engine must
   be observationally identical to the per-instruction reference stepper —
   same exit status, same retired-step count, same registers, flags and
   memory — on every program the repo can produce:

   - the mini-C corpus (native) and its ROP_1.0 rewrite,
   - the base64 case study,
   - Rng-driven random instruction programs, including page-straddling
     loads/stores and stores into the code page (self-modifying code),
   - raw random byte soup (fault parity),
   - fuel-exhaustion parity at every fuel value through a gadget chain
     (exercises the fast engine's partial-block fallback),
   - the decode-cache staleness regressions: an in-block store overwriting
     a later instruction of the same block, and an external patch between
     two runs of the same executor,
   - the stack page entry of [Memory] (random chains of push, pop, ret and
     fused [pop r; ret] mixed with loads and stores on the stack page, a
     data page and a code page) and the flat direct-mapped front (a cached
     one-slot gadget patched between two dispatches),
   - the unchecked-access guard of [Exec.make] and a whole-dispatch
     allocation fence,
   - the lazily mapped stack: pops and rets from untouched pages,
     [Image.load]'s allocation fence and the pages one Fig. 5 run
     touches. *)

open X86.Isa
module R = Util.Rng

let code_base = 0x400000L
let stack_top = 0x7000_0000L

(* --- full observable state ----------------------------------------------- *)

let all_regs = List.init 16 reg_of_index

let mem_digest (m : Machine.Memory.t) =
  let acc = ref [] in
  Util.Itbl.iter
    (fun idx p -> acc := (idx, Digest.bytes p.Machine.Memory.data) :: !acc)
    m.Machine.Memory.pages;
  List.sort compare !acc

(* Run the same machine construction under both engines and insist on
   identical observable state.  [mk] must build a fresh, identical machine
   on every call.  Returns the fast-engine run for extra assertions. *)
let compare_engines ?(fuel = 200_000) ?(on_fast = ignore) name
    (mk : unit -> Machine.Cpu.t) =
  let exec eng =
    let t = Machine.Exec.make ~engine:eng (mk ()) in
    let status = Machine.Exec.run ~fuel t in
    (t, status)
  in
  let tf, sf = exec Machine.Exec.Fast in
  on_fast tf;
  let tr, sr = exec Machine.Exec.Ref in
  let cf = tf.Machine.Exec.cpu and cr = tr.Machine.Exec.cpu in
  Alcotest.(check string) (name ^ ": exit status")
    (Format.asprintf "%a" Machine.Exec.pp_exit sr)
    (Format.asprintf "%a" Machine.Exec.pp_exit sf);
  Alcotest.(check int) (name ^ ": steps") cr.Machine.Cpu.steps
    cf.Machine.Cpu.steps;
  List.iteri
    (fun i r ->
       Alcotest.(check int64)
         (Printf.sprintf "%s: reg %d" name i)
         (Machine.Cpu.get cr r) (Machine.Cpu.get cf r))
    all_regs;
  Alcotest.(check int64) (name ^ ": rip") (Machine.Cpu.rip cr)
    (Machine.Cpu.rip cf);
  Alcotest.(check bool) (name ^ ": flags") true
    (Machine.Cpu.flags cr = Machine.Cpu.flags cf);
  Alcotest.(check bool) (name ^ ": halted") cr.Machine.Cpu.halted
    cf.Machine.Cpu.halted;
  Alcotest.(check bool) (name ^ ": memory") true
    (mem_digest cr.Machine.Cpu.mem = mem_digest cf.Machine.Cpu.mem);
  (cf, sf)

(* Machine set up as [Runner.setup] does, over a fresh copy of [mem0]. *)
let call_setup img mem0 func args () =
  let t =
    Runner.setup ~mem:(Machine.Memory.copy mem0) img ~func ~args
  in
  t.Machine.Exec.cpu

(* --- corpus and ROP_1.0 rewrites ----------------------------------------- *)

let corpus_calls =
  [ ("gcd_", [ 54L; 24L ]); ("popcount_", [ 0b10101L ]);
    ("isqrt_", [ 121L ]); ("fib_iter_", [ 10L ]); ("hexval_", [ 97L ]);
    ("leap_", [ 2000L ]); ("digits_", [ 1234L ]);
    ("powmod_", [ 4L; 13L; 497L ]); ("asm_tiny", [ 7L ]) ]

let test_corpus_native () =
  let img = Minic.Corpus.compile () in
  let mem0 = Image.load img in
  List.iter
    (fun (f, args) ->
       ignore (compare_engines ("native " ^ f) (call_setup img mem0 f args)))
    corpus_calls

let test_corpus_rop () =
  let img = Minic.Corpus.compile () in
  let r =
    Ropc.Rewriter.rewrite img ~functions:Minic.Corpus.all_names
      ~config:(Ropc.Config.rop_k ~seed:1 1.0)
  in
  let img = r.Ropc.Rewriter.image in
  let mem0 = Image.load img in
  List.iter
    (fun (f, args) ->
       ignore (compare_engines ("rop1.0 " ^ f) (call_setup img mem0 f args)))
    corpus_calls

let test_base64_rop () =
  let img = Minic.Codegen.compile (Minic.Programs.base64_program ()) in
  let r =
    Ropc.Rewriter.rewrite img ~functions:[ "b64_check"; "b64_encode" ]
      ~config:(Ropc.Config.rop_k 1.0)
  in
  let img = r.Ropc.Rewriter.image in
  let mem0 = Image.load img in
  let cf, _ =
    compare_engines "rop1.0 b64_check secret"
      (call_setup img mem0 "b64_check" [ Minic.Programs.secret_arg ])
  in
  Alcotest.(check int64) "secret accepted" 1L (Machine.Cpu.get cf RAX);
  ignore
    (compare_engines "rop1.0 b64_check wrong"
       (call_setup img mem0 "b64_check" [ 99L ]))

(* --- hand-built machines -------------------------------------------------- *)

let machine_of ?(regs = []) instrs () =
  let mem = Machine.Memory.create () in
  Machine.Memory.store_bytes mem code_base (X86.Encode.encode_list instrs);
  Machine.Memory.map mem (Int64.sub stack_top 65536L) 65536;
  let cpu = Machine.Cpu.create mem in
  Machine.Cpu.set_rip cpu code_base;
  Machine.Cpu.set cpu RSP stack_top;
  List.iter (fun (r, v) -> Machine.Cpu.set cpu r v) regs;
  cpu

(* Where a program's or chain's final [ret] lands: a lone hlt, past any
   code the generators can emit. *)
let hlt_stub = Int64.add code_base 0x800L

(* [gadgets] laid out back to back from [code_base]: the code bytes and
   each gadget's address. *)
let layout gadgets =
  let codes = List.map (fun g -> X86.Encode.encode_list g) gadgets in
  let off = ref 0 in
  let addrs =
    List.map
      (fun b ->
         let a = Int64.add code_base (Int64.of_int !off) in
         off := !off + Bytes.length b;
         a)
      codes
  in
  (Bytes.concat Bytes.empty codes, Array.of_list addrs)

(* A ROP chain machine.  [chain] lists [(g, data)]: gadget [g] runs and pops
   the words [data] before its [ret], which takes the next entry's gadget,
   the last one's [hlt_stub].  rip starts at the first gadget, rsp at [sp]
   on the first entry's words. *)
let chain_machine ?(regs = []) ?(sp = Int64.sub stack_top 2048L) gadgets chain
    () =
  let code, addrs = layout gadgets in
  let mem = Machine.Memory.create () in
  Machine.Memory.store_bytes mem code_base code;
  Machine.Memory.store_bytes mem hlt_stub (X86.Encode.encode Hlt);
  Machine.Memory.map mem (Int64.sub stack_top 65536L) 65536;
  let entry = function (g, _) :: _ -> addrs.(g) | [] -> hlt_stub in
  let rec slots = function
    | [] -> []
    | (_, data) :: rest -> data @ (entry rest :: slots rest)
  in
  List.iteri
    (fun k v -> Machine.Memory.write_u64 mem (Int64.add sp (Int64.of_int (8 * k))) v)
    (slots chain);
  let cpu = Machine.Cpu.create mem in
  Machine.Cpu.set_rip cpu (entry chain);
  Machine.Cpu.set cpu RSP sp;
  List.iter (fun (r, v) -> Machine.Cpu.set cpu r v) regs;
  cpu

(* Loads and stores that straddle a page boundary, plus an unmapped-page
   fault through a straddling access. *)
let test_page_straddle () =
  let data_base = 0x500000L in       (* page-aligned, two pages mapped *)
  let near_end = Int64.add data_base (Int64.of_int (4096 - 4)) in
  let mk extra () =
    let cpu =
      machine_of
        ~regs:[ (RBX, near_end); (RCX, 0x1122334455667788L) ]
        extra ()
    in
    Machine.Memory.map cpu.Machine.Cpu.mem data_base 8192;
    Machine.Memory.write_u64 cpu.Machine.Cpu.mem near_end 0xAABBCCDDEEFF0011L;
    cpu
  in
  ignore
    (compare_engines "straddling load"
       (mk [ Mov (W64, Reg RAX, Mem { base = Some RBX; index = None; disp = 0L }); Hlt ]));
  ignore
    (compare_engines "straddling store"
       (mk [ Mov (W64, Mem { base = Some RBX; index = None; disp = 0L }, Reg RCX); Hlt ]));
  (* same straddle, but the second page is unmapped: both engines fault *)
  let mk_fault instrs () =
    let cpu =
      machine_of ~regs:[ (RBX, near_end); (RCX, 1L) ] instrs ()
    in
    Machine.Memory.map cpu.Machine.Cpu.mem data_base 4096;
    cpu
  in
  ignore
    (compare_engines "straddling load fault"
       (mk_fault [ Mov (W64, Reg RAX, Mem { base = Some RBX; index = None; disp = 0L }); Hlt ]));
  ignore
    (compare_engines "straddling store fault"
       (mk_fault [ Mov (W64, Mem { base = Some RBX; index = None; disp = 0L }, Reg RCX); Hlt ]))

(* In-block self-modification: the first instruction of a block overwrites
   the immediate of a later instruction of the same block.  The deterministic
   variant locates the immediate byte by diffing two encodings. *)
let test_selfmod_in_block () =
  let i_of v = Mov (W64, Reg RAX, Imm v) in
  let e1 = X86.Encode.encode_list [ i_of 0x11L ] in
  let e2 = X86.Encode.encode_list [ i_of 0x22L ] in
  let imm_off = ref (-1) in
  Bytes.iteri
    (fun i c -> if c <> Bytes.get e2 i && !imm_off < 0 then imm_off := i)
    e1;
  Alcotest.(check bool) "found imm byte" true (!imm_off >= 0);
  let store = Mov (W8, Mem { base = Some RBX; index = None; disp = 0L }, Imm 0x22L) in
  let store_len = Bytes.length (X86.Encode.encode_list [ store ]) in
  let patch_addr =
    Int64.add code_base (Int64.of_int (store_len + !imm_off))
  in
  let cf, _ =
    compare_engines "in-block code patch"
      (machine_of ~regs:[ (RBX, patch_addr) ] [ store; i_of 0x11L; Hlt ])
  in
  Alcotest.(check int64) "patched immediate read" 0x22L
    (Machine.Cpu.get cf RAX)

(* Run-patch-rerun on the SAME executor: the legacy decode cache kept stale
   (instr, len) pairs across an external [Memory.write_u8]; the versioned
   block cache must not. *)
let test_patch_between_runs () =
  let run_twice eng =
    let cpu = machine_of [ Mov (W64, Reg RAX, Imm 0x11L); Hlt ] () in
    let t = Machine.Exec.make ~engine:eng cpu in
    (match Machine.Exec.run ~fuel:100 t with
     | Machine.Exec.Halted -> ()
     | st -> Alcotest.failf "first run: %a" Machine.Exec.pp_exit st);
    let first = Machine.Cpu.get cpu RAX in
    (* locate and patch the immediate byte, as an external debugger would *)
    let e1 = X86.Encode.encode_list [ Mov (W64, Reg RAX, Imm 0x11L) ] in
    let e2 = X86.Encode.encode_list [ Mov (W64, Reg RAX, Imm 0x22L) ] in
    Bytes.iteri
      (fun i c ->
         if c <> Bytes.get e2 i then
           Machine.Memory.write_u8 cpu.Machine.Cpu.mem
             (Int64.add code_base (Int64.of_int i))
             (Char.code (Bytes.get e2 i)))
      e1;
    cpu.Machine.Cpu.halted <- false;
    Machine.Cpu.set_rip cpu code_base;
    (match Machine.Exec.run ~fuel:100 t with
     | Machine.Exec.Halted -> ()
     | st -> Alcotest.failf "second run: %a" Machine.Exec.pp_exit st);
    (first, Machine.Cpu.get cpu RAX)
  in
  let f1, f2 = run_twice Machine.Exec.Fast in
  let r1, r2 = run_twice Machine.Exec.Ref in
  Alcotest.(check int64) "fast first run" 0x11L f1;
  Alcotest.(check int64) "fast sees the patch" 0x22L f2;
  Alcotest.(check int64) "ref first run" 0x11L r1;
  Alcotest.(check int64) "ref sees the patch" 0x22L r2

(* Fuel-exhaustion parity at every fuel value through a ROP gadget chain:
   steps must equal fuel exactly even when a fuel boundary falls inside a
   fused or multi-instruction block. *)
let test_fuel_parity () =
  let img = Minic.Corpus.compile () in
  let r =
    Ropc.Rewriter.rewrite img ~functions:[ "gcd_" ]
      ~config:(Ropc.Config.rop_k ~seed:1 1.0)
  in
  let img = r.Ropc.Rewriter.image in
  let mem0 = Image.load img in
  let check_fuel name fuel mk =
    let cf, sf = compare_engines ~fuel (Printf.sprintf "%s %d" name fuel) mk in
    match sf with
    | Machine.Exec.Out_of_fuel ->
      Alcotest.(check int)
        (Printf.sprintf "%s %d: steps == fuel" name fuel)
        fuel cf.Machine.Cpu.steps
    | _ -> ()
  in
  for fuel = 1 to 60 do
    check_fuel "fuel" fuel (call_setup img mem0 "gcd_" [ 54L; 24L ])
  done;
  (* Fuel that runs out on a one-slot fused block in the flat front: from
     its second dispatch on, [pop rax; ret] is a direct-mapped key hit, and
     every odd fuel leaves one instruction for its two-instruction slot. *)
  let chain = List.init 8 (fun k -> (0, [ Int64.of_int (k + 1) ])) in
  for fuel = 1 to 18 do
    check_fuel "fused front fuel" fuel
      (chain_machine [ [ Pop (Reg RAX); Ret ] ] chain)
  done

(* --- Rng-driven random programs ------------------------------------------ *)

(* Structured random programs: registers are pointed at the code page, at a
   page boundary in a data area, and at the stack, so random loads/stores
   exercise straddles, code-page writes (self-modification) and faults. *)
let gen_reg rng = reg_of_index (R.int rng 16)
let gen_width rng = width_of_index (R.int rng 4)

let gen_mem rng =
  (* small displacements keep a useful fraction of accesses mapped *)
  { base = Some (gen_reg rng); index = None;
    disp = Int64.of_int (R.range rng (-16) 16) }

(* Operands at the edges of each width's signed range, and the square-root
   boundaries where a product starts to overflow it. *)
let edge_values =
  [ 0L; 1L; -1L; 11L; 12L; 0x7FL; -0x80L; 0xB5L; 0xB6L; 0x7FFFL; -0x8000L;
    0xB504L; 0xB505L; 0x7FFFFFFFL; -0x80000000L; 0xB504F333L; 0xB504F334L;
    Int64.max_int; Int64.min_int ]

let gen_imm rng = if R.bool rng then R.choose rng edge_values else R.next64 rng

let gen_alu_op rng = R.choose rng [ Add; Sub; And; Or; Xor; Adc; Sbb; Cmp; Test ]

(* Every shape the fast engine specializes, and every shape it leaves to
   the reference semantics, at every width the ISA allows. *)
let gen_instr rng =
  match R.int rng 25 with
  | 0 -> Mov (gen_width rng, Reg (gen_reg rng), Imm (gen_imm rng))
  | 1 -> Mov (gen_width rng, Reg (gen_reg rng), Mem (gen_mem rng))
  | 2 -> Mov (gen_width rng, Mem (gen_mem rng), Reg (gen_reg rng))
  | 3 -> Alu (gen_alu_op rng, gen_width rng, Reg (gen_reg rng), Reg (gen_reg rng))
  | 4 -> Alu (gen_alu_op rng, gen_width rng, Reg (gen_reg rng), Mem (gen_mem rng))
  | 5 -> Unary (R.choose rng [ Neg; Not; Inc; Dec ], gen_width rng, Reg (gen_reg rng))
  | 6 -> Push (Reg (gen_reg rng))
  | 7 -> Pop (Reg (gen_reg rng))
  | 8 -> Lea (gen_reg rng, gen_mem rng)
  | 9 -> Xchg (gen_width rng, Reg (gen_reg rng), Reg (gen_reg rng))
  | 10 -> Cmov (cc_of_index (R.int rng 16), gen_reg rng, Reg (gen_reg rng))
  | 11 -> Shift (R.choose rng [ Shl; Shr; Sar ], gen_width rng,
                 Reg (gen_reg rng), S_imm (R.int rng 64))
  | 12 -> Imul2 (gen_width rng, gen_reg rng, Reg (gen_reg rng))
  | 13 -> Imul2 (gen_width rng, gen_reg rng, Mem (gen_mem rng))
  | 14 -> Alu (gen_alu_op rng, gen_width rng, Reg (gen_reg rng), Imm (gen_imm rng))
  | 15 ->
    let src = if R.bool rng then Reg (gen_reg rng) else Imm (gen_imm rng) in
    Alu (gen_alu_op rng, gen_width rng, Mem (gen_mem rng), src)
  | 16 -> Setcc (cc_of_index (R.int rng 16), Reg (gen_reg rng))
  | 17 -> Setcc (cc_of_index (R.int rng 16), Mem (gen_mem rng))
  | 18 -> Unary (R.choose rng [ Neg; Not; Inc; Dec ], gen_width rng, Mem (gen_mem rng))
  | 19 -> Pop (Mem (gen_mem rng))
  | 20 -> Push (if R.bool rng then Imm (gen_imm rng) else Mem (gen_mem rng))
  | 21 ->
    let dw, sw = R.choose rng ext_combos in
    let src = if R.bool rng then Reg (gen_reg rng) else Mem (gen_mem rng) in
    if R.bool rng then Movzx (dw, sw, gen_reg rng, src)
    else Movsx (dw, sw, gen_reg rng, src)
  | 22 ->
    let src = if R.bool rng then Reg (gen_reg rng) else Mem (gen_mem rng) in
    MulDiv (R.choose rng [ Mul; Imul1; Div; Idiv ], src)
  | 23 ->
    let count = if R.bool rng then S_cl else S_imm (R.int rng 64) in
    Shift (R.choose rng [ Shl; Shr; Sar; Rol; Ror ], gen_width rng,
           Reg (gen_reg rng), count)
  | _ -> R.choose rng [ Lahf; Sahf; Nop ]

let data_base = 0x500000L

(* A program is a random body and one of three tails: [hlt]; [op; ret]
   straight after the body; or [jmp +0; op; ret], which puts the pair in a
   block of its own, so the translator fuses it whenever [op] cannot write
   memory.  The stack page is filled with the stub's address, and a
   ret-ending program starts with rsp at a random slot of it (near its top,
   the fused [pop r; ret] takes the two-page path), so an unbalanced body
   still lands somewhere valid. *)
let random_machine rng () =
  let tail =
    match R.int rng 3 with
    | 0 -> [ Hlt ]
    | 1 -> [ gen_instr rng; Ret ]
    | _ -> [ Jmp (J_rel 0); gen_instr rng; Ret ]
  in
  (* short bodies before a ret: most long random bodies fault first *)
  let n = if tail = [ Hlt ] then 4 + R.int rng 24 else R.int rng 6 in
  let body = List.init n (fun _ -> gen_instr rng) in
  let cpu = machine_of (body @ tail) () in
  let mem = cpu.Machine.Cpu.mem in
  Machine.Memory.store_bytes mem hlt_stub (X86.Encode.encode Hlt);
  Machine.Memory.map mem data_base 8192;
  for k = 1 to 512 do
    Machine.Memory.write_u64 mem
      (Int64.sub stack_top (Int64.of_int (8 * k))) hlt_stub
  done;
  if tail <> [ Hlt ] then
    Machine.Cpu.set cpu RSP
      (Int64.sub stack_top (Int64.of_int (8 * (1 + R.int rng 256))));
  (* aim registers at interesting places *)
  List.iter
    (fun (r, v) -> Machine.Cpu.set cpu r v)
    [ (RAX, R.next64 rng);
      (RBX, code_base);                                 (* code page: SMC *)
      (RCX, Int64.add data_base 4090L);                 (* page straddle *)
      (RDX, Int64.add data_base (Int64.of_int (R.int rng 8000)));
      (RSI, Int64.add code_base (Int64.of_int (R.int rng 64)));
      (RDI, 0xdead0000L) ];                             (* unmapped: faults *)
  cpu

let test_random_programs () =
  for i = 1 to 600 do
    (* one machine per case, copied per engine so both runs see identical
       programs and register seeds; case i replays from seed 0xfa57+i *)
    let cpu0 = random_machine (R.create (0xfa57 + i)) () in
    ignore
      (compare_engines ~fuel:2_000
         (Printf.sprintf "random program %d" i)
         (fun () -> Machine.Cpu.copy cpu0))
  done

(* imul r, r/m sets CF = OF exactly when the signed product does not fit
   the operand width.  The oracle is independent of Semantics: exact
   products below 64 bits, and a division check at 64. *)
let test_imul2_overflow_flags () =
  let overflows w a b =
    match w with
    | W64 ->
      let p = Int64.mul a b in
      a <> 0L && (Int64.div p a <> b || (a = -1L && b = Int64.min_int))
    | W8 | W16 | W32 ->
      let bits = X86.Isa.width_bits w in
      let sext v = Int64.shift_right (Int64.shift_left v (64 - bits)) (64 - bits) in
      let p = Int64.mul (sext a) (sext b) in
      p <> sext p
  in
  List.iter
    (fun w ->
       List.iter
         (fun a ->
            List.iter
              (fun b ->
                 let name =
                   Printf.sprintf "imul%d 0x%Lx * 0x%Lx" (X86.Isa.width_bits w) a b
                 in
                 let cf, _ =
                   compare_engines name
                     (machine_of ~regs:[ (RAX, a); (RBX, b) ]
                        [ Imul2 (w, RAX, Reg RBX); Hlt ])
                 in
                 let want = overflows w a b in
                 Alcotest.(check bool) (name ^ ": CF") want cf.Machine.Cpu.cf;
                 Alcotest.(check bool) (name ^ ": OF") want cf.Machine.Cpu.o_f)
              edge_values)
         edge_values)
    [ W8; W16; W32; W64 ]

(* Allocation fence: every specialized, non-jump closure, [ret] and the
   fused [pop r; ret] slot included, retires with no minor allocation, run
   10,000 times on page-interior addresses (after one warm-up call, which
   may map a page).  Left out, because they box an int64 at a call
   boundary by design: [lea], whose address comes back from the [ea_fn]
   closure; and the generic [mov] and memory-operand ALU arms, whose
   values cross the [read_fn]/[write_fn] closures. *)
let test_alloc_fence () =
  let data = 0x500000L in
  let b_d = Mem { base = Some RBX; index = None; disp = 8L } in
  let abs = Mem { base = None; index = None; disp = Int64.add data 128L } in
  let shapes =
    [ Mov (W64, Reg RAX, Reg RCX); Mov (W64, Reg RAX, Imm 0x123456789L);
      Mov (W64, Reg RAX, b_d); Mov (W64, Reg RAX, abs);
      Mov (W64, b_d, Reg RCX); Push (Reg RCX); Pop (Reg RCX); Ret;
      Imul2 (W64, RAX, Reg RCX) ]
    @ List.concat_map
      (fun o ->
         [ Alu (o, W64, Reg RAX, Reg RCX); Alu (o, W64, Reg RAX, Imm 0x7fL) ])
      [ Add; Sub; And; Or; Xor; Adc; Sbb; Cmp; Test ]
    @ List.map (fun o -> Unary (o, W64, Reg RAX)) [ Neg; Not; Inc; Dec ]
    @ List.map (fun cc -> Setcc (cc, Reg RAX)) [ E; NE; L; A ]
  in
  let cpu = machine_of [] () in
  Machine.Memory.map cpu.Machine.Cpu.mem data 4096;
  let sp = Int64.sub stack_top 2048L and rbx = Int64.add data 64L in
  let slots =
    List.map
      (fun i ->
         (Format.asprintf "%a" X86.Pp.pp_instr i,
          Machine.Exec.compile_instr i ~next:code_base))
      shapes
    @ [ ("pop rax; ret (fused)",
         Machine.Exec.fuse_with_ret (Pop (Reg RAX)) ~next1:code_base
           ~next2:code_base) ]
  in
  List.iter
    (fun (name, f) ->
       let run () =
         Machine.Cpu.set cpu RSP sp;
         Machine.Cpu.set cpu RBX rbx;
         f cpu
       in
       run ();
       let w0 = Gc.minor_words () in
       for _ = 1 to 10_000 do run () done;
       let words = Gc.minor_words () -. w0 in
       Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 words)
    slots

(* Dispatch fence: a warm [Exec.run] over 10,000 dispatches of one-slot
   gadgets (the specialized fused [pop r; ret], a generic fused pair, a
   bare [ret]) allocates nothing: not in the flat front, the dispatch loop
   or the run's set-up. *)
let test_dispatch_fence () =
  let gadgets =
    [ [ Pop (Reg RAX); Ret ]; [ Alu (Add, W64, Reg RAX, Reg RCX); Ret ]; [ Ret ] ]
  in
  let chain =
    List.init 10_000 (fun k ->
        match k mod 3 with 0 -> (0, [ Int64.of_int k ]) | g -> (g, []))
  in
  let sp = Int64.sub stack_top 0x20000L in
  let cpu = chain_machine ~sp ~regs:[ (RCX, 3L) ] gadgets chain () in
  let rip0 = Machine.Cpu.rip cpu in
  let t = Machine.Exec.make cpu in
  let run () =
    cpu.Machine.Cpu.halted <- false;
    Machine.Cpu.set_rip cpu rip0;
    Machine.Cpu.set cpu RSP sp;
    Machine.Exec.run t
  in
  ignore (run ());
  let d0 = t.Machine.Exec.n_dispatches and x0 = t.Machine.Exec.n_translated in
  let w0 = Gc.minor_words () in
  let st = run () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "halted" true (st = Machine.Exec.Halted);
  Alcotest.(check int) "dispatches: the chain and its hlt" 10_001
    (t.Machine.Exec.n_dispatches - d0);
  Alcotest.(check int) "warm: nothing translated" 0
    (t.Machine.Exec.n_translated - x0);
  Alcotest.(check (float 0.0)) "minor words per warm run" 0.0 words

(* [Exec.make] refuses a CPU whose register buffer is too short for the
   fast engine's unchecked register accesses. *)
let test_short_regs_refused () =
  let cpu = Machine.Cpu.create (Machine.Memory.create ()) in
  ignore (Machine.Exec.make cpu);
  let short = { cpu with Machine.Cpu.regs = Bytes.make 128 '\000' } in
  match Machine.Exec.make short with
  | _ -> Alcotest.fail "a 128-byte register buffer was accepted"
  | exception Invalid_argument _ -> ()

(* --- the stack page entry and the flat front ------------------------------ *)

(* Base registers of the coherence chains, never written by them: [rbp]
   points into the stack page below the chain, [rdx] into a data page and
   [rbx] into the code page, past the code. *)
let base_regs = [ RBP; RDX; RBX ]
let dst_regs = [ RAX; RCX; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 ]

let gen_slot rng =
  { base = Some (R.choose rng base_regs); index = None;
    disp = Int64.of_int (R.range rng (-32) 24) }

let gen_load rng = Mov (W64, Reg (R.choose rng dst_regs), Mem (gen_slot rng))

(* One gadget and the data words its [ret] consumes first: a bare [ret]; a
   fused [pop r; ret] after some loads; or loads, stores and balanced
   push/pop pairs before a [ret] (a lone load fuses with it). *)
let gen_gadget rng =
  match R.int rng 4 with
  | 0 -> ([ Ret ], 0)
  | 1 ->
    (List.init (R.int rng 3) (fun _ -> gen_load rng)
     @ [ Pop (Reg (R.choose rng dst_regs)); Ret ], 1)
  | _ ->
    let acc = ref [] and depth = ref 0 in
    for _ = 0 to R.int rng 6 do
      let i =
        match R.int rng 4 with
        | 0 -> gen_load rng
        | 1 -> Mov (W64, Mem (gen_slot rng), Reg (gen_reg rng))
        | 2 -> incr depth; Push (Reg (gen_reg rng))
        | _ when !depth > 0 -> decr depth; Pop (Reg (R.choose rng dst_regs))
        | _ -> gen_load rng
      in
      acc := i :: !acc
    done;
    for _ = 1 to !depth do acc := Pop (Reg (R.choose rng dst_regs)) :: !acc done;
    (List.rev (Ret :: !acc), 0)

(* A random chain over six random gadgets.  Its words start a few slots
   below a page edge, at times 4 bytes off alignment (so some slots
   straddle it): the stack page's edge, or in one case of four the code
   page's top, so that pushes and rets use a code page. *)
let stack_mix_machine rng () =
  let gadgets = List.init 6 (fun _ -> gen_gadget rng) in
  let edge =
    if R.int rng 4 = 0 then Int64.add code_base 4096L
    else Int64.sub stack_top 4096L
  in
  let sp =
    Int64.sub edge (Int64.of_int (8 * R.int rng 12 + if R.bool rng then 4 else 0))
  in
  let chain =
    List.init (8 + R.int rng 24) (fun _ ->
        let g = R.int rng 6 in
        (g, List.init (snd (List.nth gadgets g)) (fun _ -> R.next64 rng)))
  in
  let regs =
    [ (RBP, Int64.sub sp 64L);
      (RDX, Int64.add data_base (Int64.of_int (R.int rng 4000)));
      (RBX, Int64.add code_base (Int64.of_int (0xC00 + R.int rng 256))) ]
  in
  let cpu = chain_machine ~sp ~regs (List.map fst gadgets) chain () in
  Machine.Memory.map cpu.Machine.Cpu.mem data_base 8192;
  cpu

let test_stack_entry_coherence () =
  let flushes = ref 0 and fused = ref 0 and crossed = ref 0 and halted = ref 0 in
  let page a = Int64.shift_right_logical a 12 in
  for i = 1 to 300 do
    let cpu0 = stack_mix_machine (R.create (0x57ac + i)) () in
    let sp0 = Machine.Cpu.get cpu0 RSP in
    let on_fast t =
      let cpu = t.Machine.Exec.cpu in
      flushes := !flushes + t.Machine.Exec.n_flushes;
      fused := !fused + t.Machine.Exec.n_fused;
      if page (Machine.Cpu.get cpu RSP) <> page sp0 then incr crossed;
      if cpu.Machine.Cpu.halted then incr halted
    in
    ignore
      (compare_engines ~fuel:5_000 ~on_fast
         (Printf.sprintf "stack chain %d" i)
         (fun () -> Machine.Cpu.copy cpu0))
  done;
  (* the mix must reach what it is meant to test *)
  Alcotest.(check int) "every chain halts" 300 !halted;
  Alcotest.(check bool) "code-page stores retranslated" true (!flushes > 0);
  Alcotest.(check bool) "fused slots retired" true (!fused > 0);
  Alcotest.(check bool) "rsp crossed a page edge" true (!crossed > 0)

(* A push into a code page bumps the code version: [push rax] overwrites
   the imm64 of the next instruction of its own block, which both engines
   must then run with the pushed value.  A copy of the memory starts with
   an empty stack entry. *)
let test_push_into_code () =
  let mov v = Mov (W64, Reg RCX, Imm v) in
  let old_v = 0x1111111111111111L and new_v = 0x2222222222222222L in
  let e1 = X86.Encode.encode (mov old_v) and e2 = X86.Encode.encode (mov new_v) in
  let imm = ref (-1) in
  Bytes.iteri (fun i c -> if c <> Bytes.get e2 i && !imm < 0 then imm := i) e1;
  Alcotest.(check int) "imm64 ends the mov" (Bytes.length e1) (!imm + 8);
  let push_len = Bytes.length (X86.Encode.encode (Push (Reg RAX))) in
  let sp = Int64.add code_base (Int64.of_int (push_len + !imm + 8)) in
  let mk = machine_of ~regs:[ (RAX, new_v); (RSP, sp) ] [ Push (Reg RAX); mov old_v; Hlt ] in
  let on_fast t =
    Alcotest.(check bool) "retranslated" true (t.Machine.Exec.n_flushes > 0)
  in
  let cf, _ = compare_engines ~on_fast "push into code" mk in
  Alcotest.(check int64) "pushed immediate ran" new_v (Machine.Cpu.get cf RCX);
  let m = cf.Machine.Cpu.mem in
  Alcotest.(check bool) "the run used the stack entry" true
    (m.Machine.Memory.sp_idx <> min_int);
  let c = Machine.Memory.copy m in
  Alcotest.(check int) "copy: empty stack entry" min_int c.Machine.Memory.sp_idx;
  Alcotest.(check int) "copy: no page behind it" 0
    (Bytes.length c.Machine.Memory.sp_page.Machine.Memory.data)

(* A cached one-slot fused [pop rax; ret] is patched into [pop rcx; ret]
   between two dispatches, by a store in the chain and by an external
   [Memory.write_u8] between two runs.  Its second dispatch went through
   the flat front; the dispatch after the patch must run the new bytes. *)
let test_flat_front_patch () =
  let e_old = X86.Encode.encode_list [ Pop (Reg RAX); Ret ] in
  let e_new = X86.Encode.encode_list [ Pop (Reg RCX); Ret ] in
  Alcotest.(check int) "same length" (Bytes.length e_old) (Bytes.length e_new);
  let diffs = ref [] in
  Bytes.iteri (fun i c -> if c <> Bytes.get e_new i then diffs := i :: !diffs) e_old;
  let pos = match !diffs with [ i ] -> i | _ -> Alcotest.fail "one byte apart" in
  let patch_at = Int64.add code_base (Int64.of_int pos) in
  let new_byte = Char.code (Bytes.get e_new pos) in
  let check_regs name cpu =
    Alcotest.(check int64) (name ^ ": rax from the old gadget") 2L
      (Machine.Cpu.get cpu RAX);
    Alcotest.(check int64) (name ^ ": rcx from the new gadget") 3L
      (Machine.Cpu.get cpu RCX)
  in
  let front_hit t =
    Alcotest.(check bool) "flat front hit" true
      (t.Machine.Exec.n_dispatches - t.Machine.Exec.n_dm_misses > 0)
  in
  (* in-chain: gadget 1 stores the byte, then gadget 0 runs again *)
  let store = [ Mov (W8, Mem { base = Some RBX; index = None; disp = 0L }, Reg RCX); Ret ] in
  let cf, _ =
    compare_engines ~on_fast:front_hit "in-chain patch"
      (chain_machine
         ~regs:[ (RBX, patch_at); (RCX, Int64.of_int new_byte) ]
         [ [ Pop (Reg RAX); Ret ]; store ]
         [ (0, [ 1L ]); (0, [ 2L ]); (1, []); (0, [ 3L ]) ])
  in
  check_regs "in-chain patch" cf;
  (* external: stop after two dispatches of gadget 0, patch, resume *)
  let run_patched eng =
    let cpu =
      chain_machine [ [ Pop (Reg RAX); Ret ] ] [ (0, [ 1L ]); (0, [ 2L ]); (0, [ 3L ]) ] ()
    in
    let t = Machine.Exec.make ~engine:eng cpu in
    (match Machine.Exec.run ~fuel:4 t with
     | Machine.Exec.Out_of_fuel -> ()
     | st -> Alcotest.failf "first run: %a" Machine.Exec.pp_exit st);
    if eng = Machine.Exec.Fast then front_hit t;
    Machine.Memory.write_u8 cpu.Machine.Cpu.mem patch_at new_byte;
    (match Machine.Exec.run ~fuel:100 t with
     | Machine.Exec.Halted -> ()
     | st -> Alcotest.failf "second run: %a" Machine.Exec.pp_exit st);
    check_regs "external patch" cpu
  in
  run_patched Machine.Exec.Fast;
  run_patched Machine.Exec.Ref

(* --- the lazily mapped stack ---------------------------------------------- *)

(* Pops and rets from a stack page nothing has touched read 0 on both
   engines: a [pop rax] from the last slot of an untouched page whose [ret]
   finds the hlt stub on the next page, and a [pop rax; ret] (fused on the
   fast engine) and a bare [ret] from the interior of an untouched page,
   which return to 0 and fault there alike. *)
let test_untouched_stack_page () =
  let edge = Int64.sub stack_top 16384L in          (* a page start *)
  let popret = [ Pop (Reg RAX); Ret ] in
  let hlt_at =
    Int64.add code_base
      (Int64.of_int (Bytes.length (X86.Encode.encode_list popret)))
  in
  let mk instrs sp ~ret_at () =
    let cpu = machine_of ~regs:[ (RAX, 0x55L); (RSP, sp) ] instrs () in
    Option.iter
      (fun a -> Machine.Memory.write_u64 cpu.Machine.Cpu.mem a hlt_at)
      ret_at;
    cpu
  in
  let cf, st =
    compare_engines "pop from an untouched page"
      (mk (popret @ [ Hlt ]) (Int64.sub edge 8L) ~ret_at:(Some edge))
  in
  Alcotest.(check bool) "halted" true (st = Machine.Exec.Halted);
  Alcotest.(check int64) "popped 0" 0L (Machine.Cpu.get cf RAX);
  let interior = Int64.sub edge 2048L in
  let cf, st =
    compare_engines "pop; ret from an untouched page"
      (mk popret interior ~ret_at:None)
  in
  Alcotest.(check bool) "returned to 0" true (st <> Machine.Exec.Halted);
  Alcotest.(check int64) "popped 0 (fused)" 0L (Machine.Cpu.get cf RAX);
  Alcotest.(check int64) "ret read 0" 0L (Machine.Cpu.rip cf);
  ignore
    (compare_engines "ret from an untouched page"
       (mk [ Ret ] interior ~ret_at:None))

(* The fannkuch Fig. 5 run under rop0.25: config seed 1, argument 20, as
   perfbench's fig5-run builds and runs it. *)
let fannkuch_rop025 () =
  let _, prog, fns, _ = List.nth Minic.Clbg.all 1 in
  let config = Result.get_ok (Serve.Oneshot.config_of_name ~seed:1 "rop0.25") in
  (Ropc.Rewriter.rewrite (Minic.Codegen.compile prog) ~functions:fns ~config)
    .Ropc.Rewriter.image

(* Allocation fence: [Image.load] maps the 1 MiB stack by its range alone,
   so it allocates at most the sections' bytes plus 64 KiB.  With the stack
   mapped eagerly, loading this image's 14615 section bytes allocated
   1104609 bytes. *)
let test_image_load_alloc () =
  let img = fannkuch_rop025 () in
  let sections =
    List.fold_left (fun a s -> a + Bytes.length s.Image.sec_data) 0
      img.Image.sections
  in
  ignore (Image.load img);
  let a0 = Gc.allocated_bytes () in
  let mem = Image.load img in
  let bytes = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity mem);
  if bytes > float_of_int (sections + 65536) then
    Alcotest.failf "Image.load allocated %.0f bytes for %d section bytes" bytes
      sections

(* The pages one Fig. 5 run touches, pinned exactly: loaded sections, the
   exit stub and the stack pages the run reaches.  With the stack mapped
   eagerly the same run held 261 pages. *)
let test_fig5_pages () =
  let t = Runner.setup (fannkuch_rop025 ()) ~func:"bench" ~args:[ 20L ] in
  let st = Machine.Exec.run ~fuel:100_000_000 t in
  let cpu = t.Machine.Exec.cpu in
  Alcotest.(check bool) "halted" true (st = Machine.Exec.Halted);
  Alcotest.(check int) "steps" 678793 cpu.Machine.Cpu.steps;
  Alcotest.(check int) "pages" 6 (Machine.Memory.page_count cpu.Machine.Cpu.mem)

(* Raw byte soup spanning a page boundary: decode behavior, invalid
   instructions and faults must classify identically. *)
let test_random_bytes () =
  for i = 1 to 100 do
    let rng = R.create (0xb17e5 + i) in
    let mk () =
      let bytes = Bytes.init 8192 (fun _ -> Char.chr (R.int rng 256)) in
      let mem = Machine.Memory.create () in
      Machine.Memory.store_bytes mem code_base bytes;
      Machine.Memory.map mem (Int64.sub stack_top 65536L) 65536;
      let cpu = Machine.Cpu.create mem in
      (* start near the end of the first page so decode windows straddle *)
      Machine.Cpu.set_rip cpu (Int64.add code_base 4090L);
      Machine.Cpu.set cpu RSP stack_top;
      cpu
    in
    (* both runs must see identical bytes: build once, copy per engine *)
    let cpu0 = mk () in
    ignore
      (compare_engines ~fuel:500
         (Printf.sprintf "byte soup %d" i)
         (fun () -> Machine.Cpu.copy cpu0))
  done

let () =
  Alcotest.run "exec_fast"
    [ ("corpus",
       [ Alcotest.test_case "native" `Quick test_corpus_native;
         Alcotest.test_case "rop 1.0" `Slow test_corpus_rop;
         Alcotest.test_case "base64 rop" `Quick test_base64_rop ]);
      ("memory",
       [ Alcotest.test_case "page straddles" `Quick test_page_straddle;
         Alcotest.test_case "imul2 overflow flags" `Quick
           test_imul2_overflow_flags;
         Alcotest.test_case "allocation fence" `Quick test_alloc_fence;
         Alcotest.test_case "dispatch fence" `Quick test_dispatch_fence;
         Alcotest.test_case "short register buffer refused" `Quick
           test_short_regs_refused ]);
      ("stack entry",
       [ Alcotest.test_case "chain coherence" `Quick test_stack_entry_coherence;
         Alcotest.test_case "push into code" `Quick test_push_into_code ]);
      ("selfmod",
       [ Alcotest.test_case "in-block patch" `Quick test_selfmod_in_block;
         Alcotest.test_case "patch between runs" `Quick test_patch_between_runs;
         Alcotest.test_case "flat front patch" `Quick test_flat_front_patch ]);
      ("lazy stack",
       [ Alcotest.test_case "untouched stack page" `Quick
           test_untouched_stack_page;
         Alcotest.test_case "Image.load allocation fence" `Quick
           test_image_load_alloc;
         Alcotest.test_case "fig5 run pages" `Quick test_fig5_pages ]);
      ("fuel", [ Alcotest.test_case "parity" `Quick test_fuel_parity ]);
      ("random",
       [ Alcotest.test_case "instruction programs" `Quick test_random_programs;
         Alcotest.test_case "byte soup" `Quick test_random_bytes ]) ]

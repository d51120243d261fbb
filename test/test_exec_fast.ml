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
     two runs of the same executor. *)

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
let compare_engines ?(fuel = 200_000) name (mk : unit -> Machine.Cpu.t) =
  let exec eng =
    let t = Machine.Exec.make ~engine:eng (mk ()) in
    let status = Machine.Exec.run ~fuel t in
    (t, status)
  in
  let tf, sf = exec Machine.Exec.Fast in
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
  for fuel = 1 to 60 do
    let cf, sf =
      compare_engines ~fuel
        (Printf.sprintf "fuel %d" fuel)
        (call_setup img mem0 "gcd_" [ 54L; 24L ])
    in
    match sf with
    | Machine.Exec.Out_of_fuel ->
      Alcotest.(check int)
        (Printf.sprintf "fuel %d: steps == fuel" fuel)
        fuel cf.Machine.Cpu.steps
    | _ -> ()
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

let gen_instr rng =
  match R.int rng 14 with
  | 0 -> Mov (gen_width rng, Reg (gen_reg rng), Imm (R.next64 rng))
  | 1 -> Mov (gen_width rng, Reg (gen_reg rng), Mem (gen_mem rng))
  | 2 -> Mov (gen_width rng, Mem (gen_mem rng), Reg (gen_reg rng))
  | 3 ->
    let o = R.choose rng [ Add; Sub; And; Or; Xor; Adc; Sbb; Cmp; Test ] in
    Alu (o, gen_width rng, Reg (gen_reg rng), Reg (gen_reg rng))
  | 4 ->
    let o = R.choose rng [ Add; Sub; Xor ] in
    Alu (o, gen_width rng, Reg (gen_reg rng), Mem (gen_mem rng))
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
  | _ -> Nop

let data_base = 0x500000L

let random_machine rng () =
  let n = 4 + R.int rng 24 in
  let instrs = List.init n (fun _ -> gen_instr rng) @ [ Hlt ] in
  let cpu = machine_of instrs () in
  let mem = cpu.Machine.Cpu.mem in
  Machine.Memory.map mem data_base 8192;
  (* aim registers at interesting places; RSP keeps its stack *)
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
  for i = 1 to 300 do
    (* one machine per case, copied per engine so both runs see identical
       programs and register seeds; case i replays from seed 0xfa57+i *)
    let cpu0 = random_machine (R.create (0xfa57 + i)) () in
    ignore
      (compare_engines ~fuel:2_000
         (Printf.sprintf "random program %d" i)
         (fun () -> Machine.Cpu.copy cpu0))
  done

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
       [ Alcotest.test_case "page straddles" `Quick test_page_straddle ]);
      ("selfmod",
       [ Alcotest.test_case "in-block patch" `Quick test_selfmod_in_block;
         Alcotest.test_case "patch between runs" `Quick test_patch_between_runs ]);
      ("fuel", [ Alcotest.test_case "parity" `Quick test_fuel_parity ]);
      ("random",
       [ Alcotest.test_case "instruction programs" `Quick test_random_programs;
         Alcotest.test_case "byte soup" `Quick test_random_bytes ]) ]

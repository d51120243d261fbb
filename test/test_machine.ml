(* Tests for the concrete machine: memory, flag semantics, stack ops, and a
   hand-written ROP chain in the style of the paper's Figure 1. *)

open X86.Isa
module S = Machine.Semantics

let code_base = 0x400000L
let stack_top = 0x7000_0000L

(* Assemble [instrs] at [code_base], set up a stack, return a runner. *)
let machine_of instrs =
  let mem = Machine.Memory.create () in
  Machine.Memory.store_bytes mem code_base (X86.Encode.encode_list instrs);
  Machine.Memory.map mem (Int64.sub stack_top 65536L) 65536;
  let cpu = Machine.Cpu.create mem in
  Machine.Cpu.set_rip cpu code_base;
  Machine.Cpu.set cpu RSP stack_top;
  Machine.Exec.make cpu

let run_and_get instrs reg =
  let t = machine_of instrs in
  match Machine.Exec.run ~fuel:100000 t with
  | Machine.Exec.Halted -> Machine.Cpu.get t.Machine.Exec.cpu reg
  | st -> Alcotest.failf "unexpected exit: %a" Machine.Exec.pp_exit st

let check64 name expected actual =
  Alcotest.(check int64) name expected actual

(* --- basic arithmetic --------------------------------------------------- *)

let test_mov_add () =
  check64 "5+7" 12L
    (run_and_get [ Mov (W64, Reg RAX, Imm 5L); Alu (Add, W64, Reg RAX, Imm 7L); Hlt ] RAX)

let test_w32_zero_extends () =
  check64 "32-bit write zero-extends" 0x12345678L
    (run_and_get
       [ Mov (W64, Reg RAX, Imm (-1L));
         Mov (W32, Reg RAX, Imm 0x12345678L);
         Hlt ] RAX)

let test_w8_merges () =
  check64 "8-bit write merges" 0xFFFFFFFFFFFFFF42L
    (run_and_get
       [ Mov (W64, Reg RAX, Imm (-1L)); Mov (W8, Reg RAX, Imm 0x42L); Hlt ] RAX)

let test_neg_carry () =
  (* the paper's branch encoding: neg rax sets CF = (rax != 0) *)
  let prog v =
    [ Mov (W64, Reg RAX, Imm v);
      Mov (W64, Reg RCX, Imm 0L);
      Unary (Neg, W64, Reg RAX);
      Alu (Adc, W64, Reg RCX, Imm 0L);  (* rcx := CF *)
      Hlt ]
  in
  check64 "neg 0 -> CF=0" 0L (run_and_get (prog 0L) RCX);
  check64 "neg 5 -> CF=1" 1L (run_and_get (prog 5L) RCX)

let test_stack () =
  check64 "push/pop" 77L
    (run_and_get [ Mov (W64, Reg RDX, Imm 77L); Push (Reg RDX); Pop (Reg RAX); Hlt ] RAX)

let test_call_ret () =
  (* call +N; hlt; target: mov rax, 9; ret *)
  let call = Call (J_rel 1) in   (* skip over Hlt (1 byte) *)
  let prog = [ call; Hlt; Mov (W64, Reg RAX, Imm 9L); Ret ] in
  check64 "call/ret" 9L (run_and_get prog RAX)

let test_cmov () =
  let prog taken =
    [ Mov (W64, Reg RAX, Imm (if taken then 0L else 1L));
      Mov (W64, Reg RBX, Imm 10L);
      Mov (W64, Reg RCX, Imm 20L);
      Alu (Test, W64, Reg RAX, Reg RAX);
      Cmov (E, RBX, Reg RCX);   (* if rax==0 then rbx := 20 *)
      Hlt ]
  in
  check64 "cmove taken" 20L (run_and_get (prog true) RBX);
  check64 "cmove not taken" 10L (run_and_get (prog false) RBX)

let test_div () =
  let prog =
    [ Mov (W64, Reg RAX, Imm 100L);
      Mov (W64, Reg RDX, Imm 0L);
      Mov (W64, Reg RCX, Imm 7L);
      MulDiv (Div, Reg RCX);
      Hlt ]
  in
  check64 "100/7 quotient" 14L (run_and_get prog RAX);
  let t = machine_of prog in
  ignore (Machine.Exec.run ~fuel:1000 t);
  check64 "100/7 remainder" 2L (Machine.Cpu.get t.Machine.Exec.cpu RDX)

let test_div_by_zero_faults () =
  let t =
    machine_of
      [ Mov (W64, Reg RAX, Imm 1L);
        Mov (W64, Reg RDX, Imm 0L);
        Mov (W64, Reg RCX, Imm 0L);
        MulDiv (Div, Reg RCX);
        Hlt ]
  in
  match Machine.Exec.run ~fuel:1000 t with
  | Machine.Exec.Fault _ -> ()
  | st -> Alcotest.failf "expected fault, got %a" Machine.Exec.pp_exit st

(* A quotient wider than 64 bits raises #DE on real hardware; the emulator
   must turn the typed Div_overflow into a CPU fault, not an OCaml crash. *)
let test_div_overflow_faults () =
  let t =
    machine_of
      [ Mov (W64, Reg RAX, Imm 0L);
        Mov (W64, Reg RDX, Imm 1L);      (* rdx:rax = 2^64 *)
        Mov (W64, Reg RCX, Imm 1L);
        MulDiv (Div, Reg RCX);           (* quotient 2^64 does not fit *)
        Hlt ]
  in
  match Machine.Exec.run ~fuel:1000 t with
  | Machine.Exec.Fault m ->
    Alcotest.(check string) "fault class" "divide overflow" m
  | st -> Alcotest.failf "expected fault, got %a" Machine.Exec.pp_exit st

let test_divmod_overflow_exception () =
  Alcotest.check_raises "unsigned overflow" S.Div_overflow (fun () ->
      ignore (S.divmod_u128 1L 0L 1L));
  (* INT64_MIN / -1: the only signed overflow with a nonzero divisor *)
  Alcotest.check_raises "signed overflow" S.Div_overflow (fun () ->
      ignore (S.divmod_s128 (-1L) Int64.min_int (-1L)))

let test_jcc_loop () =
  (* sum 1..10 with a dec/jnz loop *)
  let body =
    [ Mov (W64, Reg RCX, Imm 10L);
      Mov (W64, Reg RAX, Imm 0L);
      (* loop: add rax, rcx; dec rcx; jnz loop *)
      Alu (Add, W64, Reg RAX, Reg RCX);
      Unary (Dec, W64, Reg RCX) ]
  in
  let loop_len =
    X86.Encode.length (Alu (Add, W64, Reg RAX, Reg RCX))
    + X86.Encode.length (Unary (Dec, W64, Reg RCX))
    + X86.Encode.length (Jcc (NE, 0))
  in
  let prog = body @ [ Jcc (NE, -loop_len); Hlt ] in
  check64 "sum 1..10" 55L (run_and_get prog RAX)

let test_unmapped_faults () =
  let t = machine_of [ Mov (W64, Reg RAX, Mem (mem_abs 0x123L)); Hlt ] in
  match Machine.Exec.run ~fuel:10 t with
  | Machine.Exec.Fault _ -> ()
  | st -> Alcotest.failf "expected fault, got %a" Machine.Exec.pp_exit st

(* --- a real ROP chain (paper Figure 1 analog) ---------------------------- *)

(* Build: if RAX==0 then RDI:=1 else RDI:=2, encoded as a ROP chain with the
   neg/adc flag leak and a variable RSP addend, exactly like Figure 1. *)
let test_figure1_chain () =
  let mem = Machine.Memory.create () in
  (* gadget pool in .text *)
  let gadgets =
    [ "pop_rcx", [ Pop (Reg RCX); Ret ];
      "neg_rax", [ Unary (Neg, W64, Reg RAX); Ret ];
      "adc_rcx_0", [ Alu (Adc, W64, Reg RCX, Imm 0L); Ret ];
      "pop_rsi", [ Pop (Reg RSI); Ret ];
      "neg_rcx", [ Unary (Neg, W64, Reg RCX); Ret ];
      "and_rsi_rcx", [ Alu (And, W64, Reg RSI, Reg RCX); Ret ];
      "add_rsp_rsi", [ Alu (Add, W64, Reg RSP, Reg RSI); Ret ];
      "pop_rdi", [ Pop (Reg RDI); Ret ];
      "pop_rsi_rbp", [ Pop (Reg RSI); Pop (Reg RBP); Ret ];
      "hlt", [ Hlt ] ]
  in
  let addr = ref code_base in
  let gaddr = Hashtbl.create 16 in
  List.iter
    (fun (name, instrs) ->
       let b = X86.Encode.encode_list instrs in
       Machine.Memory.store_bytes mem !addr b;
       Hashtbl.replace gaddr name !addr;
       addr := Int64.add !addr (Int64.of_int (Bytes.length b)))
    gadgets;
  let g name = Hashtbl.find gaddr name in
  (* chain, one 8-byte slot per item *)
  let chain =
    [ g "pop_rcx"; 0L;                        (* rcx := 0 *)
      g "neg_rax";                            (* CF := rax != 0 *)
      g "adc_rcx_0";                          (* rcx := CF *)
      g "neg_rcx";                            (* rcx := rax!=0 ? -1 : 0 *)
      g "pop_rsi"; 0x18L;
      g "and_rsi_rcx";                        (* rsi := rax!=0 ? 0x18 : 0 *)
      g "add_rsp_rsi";                        (* branch: skip fall-through *)
      (* fall-through (rax == 0): rdi := 1, dispose of the 0x10-byte
         alternative segment by popping two junk immediates *)
      g "pop_rdi"; 1L;
      g "pop_rsi_rbp";
      (* taken (rax != 0): rdi := 2; its two slots double as the junk pops *)
      g "pop_rdi"; 2L;
      g "hlt" ]
  in
  let chain_base = 0x600000L in
  List.iteri
    (fun i v -> Machine.Memory.write_u64 mem (Int64.add chain_base (Int64.of_int (8 * i))) v)
    chain;
  Machine.Memory.map mem (Int64.sub stack_top 4096L) 4096;
  let run rax_val =
    let cpu = Machine.Cpu.create (Machine.Memory.copy mem) in
    Machine.Cpu.set cpu RAX rax_val;
    Machine.Cpu.set cpu RSP chain_base;  (* already pivoted *)
    (* kick off: ret into first gadget *)
    Machine.Cpu.set_rip cpu (g "hlt");      (* place a ret... simpler: set rip to a ret *)
    let t = Machine.Exec.make cpu in
    (* start by simulating the ret: pop first gadget into rip *)
    Machine.Cpu.set_rip cpu (Machine.Memory.read_u64 cpu.Machine.Cpu.mem chain_base);
    Machine.Cpu.set cpu RSP (Int64.add chain_base 8L);
    match Machine.Exec.run ~fuel:1000 t with
    | Machine.Exec.Halted -> Machine.Cpu.get cpu RDI
    | st -> Alcotest.failf "chain exit: %a" Machine.Exec.pp_exit st
  in
  (* rax==0: CF=0, rcx=-1, rsi=0x18&-1=0x18: skip fall-through, rdi:=1 *)
  check64 "chain rax=0 -> rdi=1" 1L (run 0L);
  (* rax!=0: CF=1, rcx=0, rsi=0: fall through, rdi:=2, skip taken path *)
  check64 "chain rax!=0 -> rdi=2" 2L (run 5L)

(* --- property tests: flag semantics vs. spec ----------------------------- *)

let gen_pair64 = QCheck.(pair (map Int64.of_int int) (map Int64.of_int int))

let prop_add_flags =
  QCheck.Test.make ~name:"add flags match reference" ~count:1000 gen_pair64
    (fun (a, b) ->
       let t = machine_of
           [ Mov (W64, Reg RAX, Imm a);
             Alu (Add, W64, Reg RAX, Imm b);
             Hlt ]
       in
       ignore (Machine.Exec.run ~fuel:10 t);
       let cpu = t.Machine.Exec.cpu in
       let r = Int64.add a b in
       let cf_ref = Int64.unsigned_compare r a < 0 in
       let zf_ref = r = 0L in
       cpu.Machine.Cpu.cf = cf_ref && cpu.Machine.Cpu.zf = zf_ref)

let prop_sub_flags =
  QCheck.Test.make ~name:"cmp flags match signed/unsigned compare" ~count:1000
    gen_pair64
    (fun (a, b) ->
       let t = machine_of
           [ Mov (W64, Reg RAX, Imm a);
             Alu (Cmp, W64, Reg RAX, Imm b);
             Hlt ]
       in
       ignore (Machine.Exec.run ~fuel:10 t);
       let cpu = t.Machine.Exec.cpu in
       let holds = Machine.Cpu.cc_holds cpu in
       holds B = (Int64.unsigned_compare a b < 0)
       && holds L = (Int64.compare a b < 0)
       && holds E = (a = b)
       && holds A = (Int64.unsigned_compare a b > 0)
       && holds G = (Int64.compare a b > 0))

let prop_mulhi =
  QCheck.Test.make ~name:"mulhi_u/s consistency" ~count:1000 gen_pair64
    (fun (a, b) ->
       (* signed identity: hi_s = hi_u - (a<0)*b - (b<0)*a *)
       let hu = S.mulhi_u a b in
       let hs = S.mulhi_s a b in
       let expect =
         let h = hu in
         let h = if Int64.compare a 0L < 0 then Int64.sub h b else h in
         if Int64.compare b 0L < 0 then Int64.sub h a else h
       in
       hs = expect
       (* and small-number sanity *)
       && S.mulhi_u 0xFFFFFFFFL 0xFFFFFFFFL = 0L
       && S.mulhi_s (-1L) (-1L) = 0L)

let prop_divmod =
  QCheck.Test.make ~name:"div/idiv vs OCaml semantics" ~count:1000
    QCheck.(pair (map Int64.of_int int) (map Int64.of_int small_signed_int))
    (fun (a, b) ->
       QCheck.assume (b <> 0L);
       let q, r = S.divmod_u128 0L a b in
       let qs, rs = S.divmod_s128 (Int64.shift_right a 63) a b in
       q = Int64.unsigned_div a b && r = Int64.unsigned_rem a b
       && qs = Int64.div a b && rs = Int64.rem a b)

let () =
  let qt =
    List.map QCheck_alcotest.to_alcotest
      [ prop_add_flags; prop_sub_flags; prop_mulhi; prop_divmod ]
  in
  Alcotest.run "machine"
    [ ("exec",
       [ Alcotest.test_case "mov/add" `Quick test_mov_add;
         Alcotest.test_case "32-bit zero-extend" `Quick test_w32_zero_extends;
         Alcotest.test_case "8-bit merge" `Quick test_w8_merges;
         Alcotest.test_case "neg carry leak" `Quick test_neg_carry;
         Alcotest.test_case "push/pop" `Quick test_stack;
         Alcotest.test_case "call/ret" `Quick test_call_ret;
         Alcotest.test_case "cmov" `Quick test_cmov;
         Alcotest.test_case "div" `Quick test_div;
         Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
         Alcotest.test_case "div overflow" `Quick test_div_overflow_faults;
         Alcotest.test_case "divmod overflow exception" `Quick
           test_divmod_overflow_exception;
         Alcotest.test_case "jcc loop" `Quick test_jcc_loop;
         Alcotest.test_case "unmapped fault" `Quick test_unmapped_faults;
         Alcotest.test_case "figure-1 ROP chain" `Quick test_figure1_chain ]);
      ("flags", qt) ]

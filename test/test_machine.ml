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

(* --- lazy maps ------------------------------------------------------------ *)

module Mem = Machine.Memory

(* [map] records its range only; a page joins the memory on first touch, as
   a private zero page.  Three pages at [lazy_base], page-aligned, so one
   byte past the range is the first byte of an unmapped page. *)
let lazy_base = 0x600000L
let lazy_len = 3 * 4096
let lazy_at k = Int64.add lazy_base (Int64.of_int k)

let lazy_mem () =
  let m = Mem.create () in
  Mem.map m lazy_base lazy_len;
  Alcotest.(check int) "map touches no page" 0 (Mem.page_count m);
  m

(* Every read path sees 0 in an untouched page of a mapped range, each on a
   fresh memory so the path under test is the one that meets the page. *)
let test_lazy_map_reads () =
  let page = 4096 in
  let last = lazy_len - 1 in
  List.iter
    (fun (name, off, read) ->
       let m = lazy_mem () in
       check64 name 0L (read m (lazy_at off));
       Alcotest.(check int) (name ^ ": one page touched") 1 (Mem.page_count m))
    [ ("read_u8", 5, fun m a -> Int64.of_int (Mem.read_u8 m a));
      ("read_u8_opt", page + 7,
       fun m a -> Int64.of_int (Option.get (Mem.read_u8_opt m a)));
      ("read 1", 2 * page, fun m a -> Mem.read m a 1);
      ("read 2", 100, fun m a -> Mem.read m a 2);
      ("read 4", page + 12, fun m a -> Mem.read m a 4);
      ("read 8", last - 7, fun m a -> Mem.read m a 8);
      ("read_u64", page + 16, fun m a -> Mem.read_u64 m a);
      ("read_u64 at the range end", last - 7, fun m a -> Mem.read_u64 m a);
      ("read_bytes_avail", 40,
       fun m a ->
         let b = Mem.read_bytes_avail m a 16 in
         Alcotest.(check int) "read_bytes_avail: length" 16 (Bytes.length b);
         if Bytes.exists (fun c -> c <> '\000') b then 1L else 0L);
      ("is_mapped", 2 * page + 1,
       fun m a -> if Mem.is_mapped m a then 0L else 1L) ];
  (* a fetch window that runs past the range stops at its end *)
  let m = lazy_mem () in
  Alcotest.(check int) "read_bytes_avail stops at the range end" 4
    (Bytes.length (Mem.read_bytes_avail m (lazy_at (lazy_len - 4)) 16))

(* One byte past the range faults as an unmapped read always did: the same
   address and message, through the byte, sized and 8-byte paths. *)
let test_lazy_map_fault () =
  let past = lazy_at lazy_len in
  List.iter
    (fun (name, read) ->
       let m = lazy_mem () in
       match read m past with
       | _ -> Alcotest.failf "%s: one byte past the range read" name
       | exception Mem.Fault (a, msg) ->
         check64 (name ^ ": address") past a;
         Alcotest.(check string) (name ^ ": message")
           "read of unmapped address" msg)
    [ ("read_u8", fun m a -> ignore (Mem.read_u8 m a));
      ("read 4", fun m a -> ignore (Mem.read m a 4));
      ("read_u64", fun m a -> ignore (Mem.read_u64 m a)) ];
  let m = lazy_mem () in
  Alcotest.(check bool) "is_mapped past the range" false (Mem.is_mapped m past);
  Alcotest.(check bool) "read_u8_opt past the range" true
    (Mem.read_u8_opt m past = None);
  Alcotest.(check int) "nothing touched past the range" 0 (Mem.page_count m)

(* A copy shares no page: its untouched pages read 0, and writes to it, on
   pages the original has touched or not, do not show in the original.
   [Cpu.copy] copies memory the same way. *)
let test_lazy_map_copy () =
  let m = lazy_mem () in
  Mem.write_u64 m (lazy_at 8) 0x1122334455667788L;
  let check_copy name c =
    check64 (name ^ ": untouched page reads 0") 0L
      (Mem.read_u64 c (lazy_at 4096));
    check64 (name ^ ": touched page copied") 0x1122334455667788L
      (Mem.read_u64 c (lazy_at 8));
    Mem.write_u64 c (lazy_at 8) 1L;
    Mem.write_u64 c (lazy_at 4096) 2L;
    Mem.write_u8 c (lazy_at (2 * 4096)) 3;
    check64 (name ^ ": original's touched page") 0x1122334455667788L
      (Mem.read_u64 m (lazy_at 8));
    check64 (name ^ ": original's page the copy read") 0L
      (Mem.read_u64 m (lazy_at 4096));
    check64 (name ^ ": original's page the copy wrote first") 0L
      (Mem.read m (lazy_at (2 * 4096)) 1)
  in
  check_copy "Memory.copy" (Mem.copy m);
  let cpu = Machine.Cpu.create (lazy_mem ()) in
  Mem.write_u64 cpu.Machine.Cpu.mem (lazy_at 8) 0x1122334455667788L;
  let m = cpu.Machine.Cpu.mem in
  let c = (Machine.Cpu.copy cpu).Machine.Cpu.mem in
  check64 "Cpu.copy: untouched page reads 0" 0L (Mem.read_u64 c (lazy_at 4096));
  Mem.write_u64 c (lazy_at 4096) 2L;
  check64 "Cpu.copy: original untouched by the copy's write" 0L
    (Mem.read_u64 m (lazy_at 4096))

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
         Alcotest.test_case "lazy map: untouched bytes read 0" `Quick
           test_lazy_map_reads;
         Alcotest.test_case "lazy map: past the range faults" `Quick
           test_lazy_map_fault;
         Alcotest.test_case "lazy map: copies share no page" `Quick
           test_lazy_map_copy;
         Alcotest.test_case "figure-1 ROP chain" `Quick test_figure1_chain ]);
      ("flags", qt) ]

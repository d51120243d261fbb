(* CPU state for the x64-lite machine. *)

open X86.Isa

(* Registers live in a flat 128-byte buffer, 8 bytes per register indexed by
   [Isa.reg_index], accessed with the little-endian [Bytes] primitives.  An
   [int64 array] would box every element: each computed register write would
   allocate, and each read would chase a pointer.  The buffer also gives the
   sub-width register writes (16/8-bit merges) single partial stores. *)
type t = {
  regs : Bytes.t;
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  mutable pf : bool;
  mem : Memory.t;
  mutable halted : bool;
  mutable steps : int;          (* instructions retired *)
}

let create mem = {
  regs = Bytes.make ((16 + 1) * 8) '\000';
  cf = false; zf = false; sf = false; o_f = false; pf = false;
  mem;
  halted = false;
  steps = 0;
}

let copy t = {
  regs = Bytes.copy t.regs;
  cf = t.cf; zf = t.zf; sf = t.sf; o_f = t.o_f; pf = t.pf;
  mem = Memory.copy t.mem;
  halted = t.halted;
  steps = t.steps;
}

let get t r = Bytes.get_int64_le t.regs (reg_index r lsl 3)
let set t r v = Bytes.set_int64_le t.regs (reg_index r lsl 3) v

(* The instruction pointer is the 17th slot of the register buffer rather
   than a [mutable int64] field: the execution engine stores to it on every
   retired instruction, and a boxed mutable field would cost a write-barrier
   call per store plus an allocation per computed control transfer. *)
let rip_off = 16 * 8
let rip t = Bytes.get_int64_le t.regs rip_off
let set_rip t v = Bytes.set_int64_le t.regs rip_off v

let flags t : Semantics.flags =
  { cf = t.cf; zf = t.zf; sf = t.sf; o_f = t.o_f; pf = t.pf }

(* Condition-code test against the live flag fields, for the fast engine's
   compiled Jcc/Cmov/Setcc.  Same truth table as the [cc] of
   [Semantics.Make], without going through the functor's flag operations. *)
let cc_holds t (cc : cc) =
  match cc with
  | O -> t.o_f | NO -> not t.o_f
  | B -> t.cf | AE -> not t.cf
  | E -> t.zf | NE -> not t.zf
  | BE -> t.cf || t.zf | A -> not (t.cf || t.zf)
  | S -> t.sf | NS -> not t.sf
  | P -> t.pf | NP -> not t.pf
  | L -> t.sf <> t.o_f | GE -> t.sf = t.o_f
  | LE -> t.zf || t.sf <> t.o_f | G -> not t.zf && t.sf = t.o_f

let pp fmt t =
  let r n = get t n in
  Format.fprintf fmt
    "rip=%Lx rax=%Lx rbx=%Lx rcx=%Lx rdx=%Lx rsi=%Lx rdi=%Lx rbp=%Lx rsp=%Lx@\n\
     r8=%Lx r9=%Lx r10=%Lx r11=%Lx r12=%Lx r13=%Lx r14=%Lx r15=%Lx cf=%b zf=%b sf=%b of=%b"
    (rip t) (r RAX) (r RBX) (r RCX) (r RDX) (r RSI) (r RDI) (r RBP) (r RSP)
    (r R8) (r R9) (r R10) (r R11) (r R12) (r R13) (r R14) (r R15)
    t.cf t.zf t.sf t.o_f

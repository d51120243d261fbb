(* Def/use sets per instruction, including the flags pseudo-register,
   derived from the one x64-lite semantics ([Machine.Semantics.Make]).

   [defs] of a memory-destination instruction is empty (the store does not
   define a register), but address registers appear in [uses]. *)

open X86.Isa
module R = Regset

let use_mem (m : mem) =
  let s = match m.base with Some r -> R.of_reg r | None -> R.empty in
  match m.index with Some (r, _) -> R.add s r | None -> s

let use_operand = function
  | Reg r -> R.of_reg r
  | Imm _ -> R.empty
  | Mem m -> use_mem m

(* --- def/use derived from the one semantics ----------------------------- *)

(* What one instruction reads and writes, found by running it through
   [Machine.Semantics.Make] over location masks.  A value is the set of
   locations it was computed from: Regset's 16 GPR bits and flags bit, plus
   [loaded_bit] for a value read from memory.  A shift count, the only
   value the semantics branch on, also carries a small known constant above
   the location bits.

   Registers and flags are read at their current value in the instruction,
   so a register read after this instruction wrote it is not a use.  A use
   is a location that flows into an observable sink: a register or memory
   write, a memory address, a jump target, a branch condition or a divide.
   The old flags flowing into a flag write are not a use (a shift by an
   unknown count keeps them where the count is 0).  The flags are a def
   only when all five are written from values free of the old flags. *)
type effects = {
  uses : R.t;
  defs : R.t;
  flags_written : bool;         (* some flag may be written *)
}

let loaded_bit = 1 lsl 17
let loc_bits = (1 lsl 18) - 1
let sink_bits = R.all lor R.flags_bit   (* what [uses] may hold *)

let all_flags_written = (1 lsl 5) - 1

let flag_index = function
  | Machine.Semantics.CF -> 0
  | Machine.Semantics.ZF -> 1
  | Machine.Semantics.SF -> 2
  | Machine.Semantics.OF -> 3
  | Machine.Semantics.PF -> 4

exception Invalid_instr

module Masks = struct
  type t = {
    regs : int array;           (* current value of each GPR *)
    flags : int array;          (* current value of each flag *)
    mutable uses : int;
    mutable defs : int;
    mutable written : int;      (* flags written, one bit per flag_index *)
  }
  type v = int
  type f = int
  type outcome = unit

  (* shift counts are below 64; no other constant is ever branched on *)
  let const c =
    if Int64.compare c 0L >= 0 && Int64.compare c 64L < 0 then
      (Int64.to_int c + 1) lsl 18
    else 0

  let const_value v =
    if v lsr 18 = 0 then None else Some (Int64.of_int ((v lsr 18) - 1))

  (* every operation's result depends on all of its operands *)
  let dep a b = (a lor b) land loc_bits
  let dep1 a = a land loc_bits
  let add = dep and sub = dep and mul = dep and mulhi_u = dep and mulhi_s = dep
  let logand = dep and logor = dep and logxor = dep
  let shl = dep and shr = dep and sar = dep
  let lognot = dep1 and neg = dep1
  let trunc _ = dep1 and sext _ = dep1
  let select c a b = dep c (dep a b)

  let eq = dep and f_or = dep and f_xor = dep
  let bit0 = dep1 and parity = dep1 and of_flag = dep1 and fnot = dep1
  let flag_const _ = 0
  let f_select = select
  let defer th = th ()

  let fresh () =
    { regs = Array.make 16 0; flags = Array.make 5 0;
      uses = R.empty; defs = R.empty; written = 0 }

  (* every location holds its own old value *)
  let reset st =
    for k = 0 to 15 do st.regs.(k) <- 1 lsl k done;
    Array.fill st.flags 0 5 R.flags_bit;
    st.uses <- R.empty;
    st.defs <- R.empty;
    st.written <- 0

  let sink st v = st.uses <- st.uses lor (v land sink_bits)

  let get st r = st.regs.(reg_index r)

  let set st r v =
    sink st v;
    st.regs.(reg_index r) <- dep1 v;
    st.defs <- R.add st.defs r

  let get_flag st fl = st.flags.(flag_index fl)

  let set_flag st fl v =
    st.uses <- st.uses lor (v land R.all);
    st.flags.(flag_index fl) <- dep1 v;
    st.written <- st.written lor (1 lsl flag_index fl)

  let load st a _ = sink st a; loaded_bit
  let store st a _ v = sink st a; sink st v

  let divide st ~signed:_ ~hi ~lo d =
    let v = dep hi (dep lo d) in
    sink st v;
    (v, v)

  let fault _ = raise Invalid_instr

  let rip _ = 0L
  let ok = ()
  let halt _ = ()
  let jump st v = sink st v
  let branch st c _ = sink st c
end

module Derive = Machine.Semantics.Make (Masks)

(* One state per domain, reset for each instruction, so a derivation
   allocates little more than its result. *)
let scratch = Domain.DLS.new_key Masks.fresh

(* The instance alone: what the machine's step reads and writes. *)
let machine_effects (i : instr) : effects =
  let st = Domain.DLS.get scratch in
  Masks.reset st;
  (match Derive.exec st i with () -> () | exception Invalid_instr -> ());
  let kill =
    st.Masks.written = all_flags_written
    && Array.for_all (fun f -> not (R.mem_flags f)) st.Masks.flags
  in
  { uses = st.Masks.uses;
    defs = (if kill then R.add_flags st.Masks.defs else st.Masks.defs);
    flags_written = st.Masks.written <> 0 }

(* The machine's effects plus the calling convention, which the step cannot
   see: a call may read every argument register and clobbers the
   caller-saved registers and the flags; a return hands back rax. *)
let effects (i : instr) : effects =
  let e = machine_effects i in
  match i with
  | Call _ ->
    { uses = R.union e.uses R.arg_regs;
      defs = R.union e.defs (R.add_flags R.caller_saved);
      flags_written = true }
  | Ret -> { e with uses = R.add e.uses RAX }
  | _ -> e

(* (uses, defs) where both may include the flags bit *)
let def_use i =
  let e = effects i in
  (e.uses, e.defs)

(* May executing [i] change the status flags? *)
let clobbers_flags i = (effects i).flags_written

(* Does [i] read the status flags? *)
let reads_flags i = R.mem_flags (effects i).uses

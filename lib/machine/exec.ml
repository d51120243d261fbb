(* Concrete execution of x64-lite.

   The only execution engine used by the obfuscated programs themselves.
   The reference stepper is [Semantics.Make] instantiated over the CPU; the
   symbolic stepper in lib/symex is the same functor over expressions.  The
   block-translating fast engine below is hand-specialized and
   differentially tested against the reference.  Decode and block caches
   keyed by absolute address make repeated chain execution cheap; stores
   into decoded pages invalidate them. *)

open X86.Isa
module S = Semantics

exception Exec_fault of string

type exit_status =
  | Halted
  | Fault of string
  | Out_of_fuel

let pp_exit fmt = function
  | Halted -> Format.pp_print_string fmt "halted"
  | Fault m -> Format.fprintf fmt "fault: %s" m
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"

(* --- flag updates ---------------------------------------------------- *)

let set_zsp cpu w r =
  cpu.Cpu.zf <- S.truncate w r = 0L;
  cpu.Cpu.sf <- S.sign_bit w r;
  cpu.Cpu.pf <- S.parity r

let flags_add cpu w a b r =
  cpu.Cpu.cf <- S.carry_out w a b r;
  cpu.Cpu.o_f <- S.overflow_add w a b r;
  set_zsp cpu w r

let flags_sub cpu w a b r =
  cpu.Cpu.cf <- S.borrow_out w a b r;
  cpu.Cpu.o_f <- S.overflow_sub w a b r;
  set_zsp cpu w r

let flags_logic cpu w r =
  cpu.Cpu.cf <- false;
  cpu.Cpu.o_f <- false;
  set_zsp cpu w r

(* 64-bit specializations of the flag updates for the translated fast path:
   at full width [S.truncate] is the identity and [S.sign_bit] is a sign
   compare, so each formula collapses to straight-line int64 arithmetic. *)

let set_zsp64 cpu r =
  cpu.Cpu.zf <- r = 0L;
  cpu.Cpu.sf <- r < 0L;
  cpu.Cpu.pf <- S.parity r

let flags_add64 cpu a b r =
  cpu.Cpu.cf <-
    Int64.logor (Int64.logand a b)
      (Int64.logand (Int64.logor a b) (Int64.lognot r)) < 0L;
  cpu.Cpu.o_f <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
  set_zsp64 cpu r

let flags_sub64 cpu a b r =
  cpu.Cpu.cf <-
    Int64.logor (Int64.logand (Int64.lognot a) b)
      (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
  cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
  set_zsp64 cpu r

let flags_logic64 cpu r =
  cpu.Cpu.cf <- false;
  cpu.Cpu.o_f <- false;
  set_zsp64 cpu r

(* --- reference semantics ---------------------------------------------- *)

(* [Semantics.Make] over the CPU: int64 values, bool flags.  [exec_instr]
   is the reference stepper's whole instruction set and the fast
   compiler's fallback for the instructions it does not specialize. *)
module Concrete = struct
  type t = Cpu.t
  type v = int64
  type f = bool
  type outcome = unit

  let const v = v
  let const_value v = Some v
  let add = Int64.add
  let sub = Int64.sub
  let mul = Int64.mul
  let mulhi_u = S.mulhi_u
  let mulhi_s = S.mulhi_s
  let logand = Int64.logand
  let logor = Int64.logor
  let logxor = Int64.logxor
  let lognot = Int64.lognot
  let neg = Int64.neg
  let shl a n = Int64.shift_left a (Int64.to_int n land 63)
  let shr a n = Int64.shift_right_logical a (Int64.to_int n land 63)
  let sar a n = Int64.shift_right a (Int64.to_int n land 63)
  let trunc = S.truncate
  let sext = S.sign_extend
  let select c a b = if c then a else b

  let eq = Int64.equal
  let bit0 v = Int64.logand v 1L = 1L
  let parity = S.parity
  let of_flag f = if f then 1L else 0L
  let flag_const f = f
  let fnot = not
  let f_or a b = a || b
  let f_xor a b = a <> b
  let f_select c a b = if c then a else b

  let get = Cpu.get
  let set = Cpu.set

  let get_flag cpu = function
    | S.CF -> cpu.Cpu.cf | S.ZF -> cpu.Cpu.zf | S.SF -> cpu.Cpu.sf
    | S.OF -> cpu.Cpu.o_f | S.PF -> cpu.Cpu.pf

  let set_flag cpu fl v =
    match fl with
    | S.CF -> cpu.Cpu.cf <- v | S.ZF -> cpu.Cpu.zf <- v
    | S.SF -> cpu.Cpu.sf <- v | S.OF -> cpu.Cpu.o_f <- v
    | S.PF -> cpu.Cpu.pf <- v

  let load cpu a n = Memory.read cpu.Cpu.mem a n
  let store cpu a n v = Memory.write cpu.Cpu.mem a n v

  let divide _ ~signed ~hi ~lo d =
    match (if signed then S.divmod_s128 else S.divmod_u128) hi lo d with
    | qr -> qr
    | exception Division_by_zero -> raise (Exec_fault "divide by zero")
    | exception S.Div_overflow -> raise (Exec_fault "divide overflow")

  let fault m = raise (Exec_fault m)

  let rip = Cpu.rip
  let ok = ()
  let halt cpu = cpu.Cpu.halted <- true
  let jump = Cpu.set_rip
  let branch cpu c target = if c then Cpu.set_rip cpu target
end

module Ref_semantics = Semantics.Make (Concrete)

(* Execute [i]; [cpu.rip] has already been advanced past the instruction. *)
let exec_instr = Ref_semantics.exec

(* --- fetch/decode with cache ------------------------------------------ *)

module ITbl = Util.Itbl

(* A translated basic block: one closure per instruction, straight-line up
   to and including the first ret/jmp/jcc/call/hlt.  Each closure advances
   [rip] past its instruction before doing anything else, so a fault or a
   mid-block cache invalidation leaves the CPU in exactly the state the
   reference stepper would have produced. *)
type block = {
  b_ops : (Cpu.t -> unit) array;
  b_writes : bool;
  (* whether any op can write memory: only those can bump the memory's code
     version, so blocks without them run with no mid-block staleness checks *)
  b_len : int;
  (* instructions retired by running every slot: non-writing blocks may fuse
     the trailing (op, ret) pair into one slot, so slots <= b_len.  Writing
     blocks are never fused (slots = b_len): their run loop stops on the
     per-op staleness check and must count retires per slot. *)
}

(* [Fast] dispatches through the block-translation cache; [Ref] re-fetches
   every instruction through the per-instruction decode cache.  The two are
   differentially tested against each other (test/test_exec_fast.ml, the
   difftest --engine both oracle); Ref is the semantic baseline. *)
type engine = Fast | Ref

let empty_block = { b_ops = [||]; b_writes = false; b_len = 0 }

(* Direct-mapped front of the block cache: dispatch happens once per 1-3
   retired instructions on gadget-dense chains, so even the specialized
   hashtable probe shows up.  A key/value array pair indexed by the low rip
   bits turns the common re-dispatch into two array loads and a compare;
   collisions simply fall through to the hashtable. *)
let dm_bits = 11
let dm_size = 1 lsl dm_bits
let dm_mask = dm_size - 1

type t = {
  cpu : Cpu.t;
  decode_cache : (X86.Isa.instr * int) ITbl.t;
  block_cache : block ITbl.t;
  dm_keys : int array;           (* min_int = empty slot *)
  dm_blocks : block array;
  mutable cache_version : int;   (* Memory.code_version the caches match *)
  mutable engine : engine;
  mutable on_step : (Cpu.t -> int64 -> X86.Isa.instr -> unit) option;
  (* Lifetime counters, exported by [publish_metrics].  Plain int fields:
     the dispatch loop pays an unboxed add or two, never a registry probe,
     and the per-retire loops ([exec_ops]/[exec_ops_nw]) stay untouched. *)
  mutable n_dispatches : int;    (* fast-engine block dispatches *)
  mutable n_dm_misses : int;     (* dispatches that fell past the dm front *)
  mutable n_translated : int;    (* blocks compiled to closures *)
  mutable n_flushes : int;       (* wholesale cache invalidations *)
  mutable n_fused : int;         (* instructions retired through fused slots *)
  mutable n_decode_misses : int; (* ref-engine decode-cache fills *)
}

let make ?(engine = Fast) cpu =
  { cpu;
    decode_cache = ITbl.create 1024;
    block_cache = ITbl.create 256;
    dm_keys = Array.make dm_size min_int;
    dm_blocks = Array.make dm_size empty_block;
    cache_version = Memory.code_version cpu.Cpu.mem;
    engine;
    on_step = None;
    n_dispatches = 0; n_dm_misses = 0; n_translated = 0; n_flushes = 0;
    n_fused = 0; n_decode_misses = 0 }

(* Both caches hold derived views of code bytes; a write into any page we
   ever decoded from (Memory.note_code below) bumps the memory's version
   counter and invalidates them wholesale here.  Flushes are rare — the
   rewriter's patched immediates and difftest's wild stores, not the steady
   state — so a full reset beats precise per-address eviction. *)
let flush_caches t v =
  ITbl.reset t.decode_cache;
  ITbl.reset t.block_cache;
  Array.fill t.dm_keys 0 dm_size min_int;
  t.n_flushes <- t.n_flushes + 1;
  t.cache_version <- v

let sync_caches t =
  let v = Memory.code_version t.cpu.Cpu.mem in
  if v <> t.cache_version then flush_caches t v

(* Decode one instruction at [rip], no caching.  Marks the bytes as code so
   a later store into them bumps the memory's version counter. *)
let decode_raw t rip =
  let mem = t.cpu.Cpu.mem in
  let off = Memory.offset_of rip in
  let dec =
    (* When the whole 16-byte fetch window sits inside one page, decode
       straight out of the page bytes; only page-straddling windows pay for
       the copying fetch. *)
    if off + X86.Encode.max_instr_len <= Memory.page_size then
      match Memory.get_page_opt mem rip with
      | Some p -> X86.Decode.decode p.Memory.data off
      | None -> None
    else
      X86.Decode.decode (Memory.read_bytes_avail mem rip X86.Encode.max_instr_len) 0
  in
  match dec with
  | Some (i, len) ->
    Memory.note_code mem rip len;
    Some (i, len)
  | None -> None

(* Decode one instruction at [rip] through the cache.  Addresses fit OCaml's
   immediate ints (62 bits of usable address space), so the key is the rip
   itself and the table never hashes a boxed int64.  Only the reference
   stepper path fills this cache; block translation decodes each address
   once into closures, so caching the instruction view as well would just
   double the translation-time table traffic. *)
let decode_at t rip =
  let key = Int64.to_int rip in
  match ITbl.find_opt t.decode_cache key with
  | Some r -> Some r
  | None ->
    t.n_decode_misses <- t.n_decode_misses + 1;
    (match decode_raw t rip with
     | Some (i, len) as r ->
       ITbl.replace t.decode_cache key (i, len);
       r
     | None -> None)

let fetch t rip = sync_caches t; decode_at t rip

(* One step; raises Exec_fault / Memory.Fault on machine exceptions. *)
let step t =
  let cpu = t.cpu in
  let rip = (Cpu.rip cpu) in
  match fetch t rip with
  | None -> raise (Exec_fault (Printf.sprintf "invalid instruction at 0x%Lx" rip))
  | Some (i, len) ->
    (match t.on_step with Some f -> f cpu rip i | None -> ());
    Cpu.set_rip cpu (Int64.add rip (Int64.of_int len));
    exec_instr cpu i;
    cpu.Cpu.steps <- cpu.Cpu.steps + 1

(* --- block translation ------------------------------------------------- *)

(* Pre-resolved operand accessors: the operand shape, register index, mask
   and displacement are decided once at translation time, so the per-retire
   work is an array access or a page-local memory access. *)

(* Byte offset of a register inside the flat [Cpu.regs] buffer. *)
let reg_off r = reg_index r lsl 3

let ea_fn (m : mem) : Cpu.t -> int64 =
  match m.base, m.index with
  | None, None -> let d = m.disp in fun _ -> d
  | Some b, None ->
    let bo = reg_off b and d = m.disp in
    if d = 0L then (fun cpu -> Bytes.get_int64_le cpu.Cpu.regs bo)
    else fun cpu -> Int64.add (Bytes.get_int64_le cpu.Cpu.regs bo) d
  | None, Some (r, sc) ->
    let ro = reg_off r and sc = Int64.of_int sc and d = m.disp in
    fun cpu -> Int64.add (Int64.mul (Bytes.get_int64_le cpu.Cpu.regs ro) sc) d
  | Some b, Some (r, sc) ->
    let bo = reg_off b and ro = reg_off r
    and sc = Int64.of_int sc and d = m.disp in
    fun cpu ->
      Int64.add
        (Int64.add (Bytes.get_int64_le cpu.Cpu.regs bo)
           (Int64.mul (Bytes.get_int64_le cpu.Cpu.regs ro) sc))
        d

(* Sub-width register reads load just the low bytes (little-endian layout),
   so no masking is needed; sub-width writes are single partial stores with
   the x86 merge (8/16-bit) and zero-extend (32-bit) semantics built in. *)
let read_fn w (o : operand) : Cpu.t -> int64 =
  match o with
  | Reg r ->
    let i = reg_off r in
    (match w with
     | W64 -> fun cpu -> Bytes.get_int64_le cpu.Cpu.regs i
     | W32 ->
       fun cpu ->
         Int64.logand
           (Int64.of_int32 (Bytes.get_int32_le cpu.Cpu.regs i))
           0xFFFFFFFFL
     | W16 -> fun cpu -> Int64.of_int (Bytes.get_uint16_le cpu.Cpu.regs i)
     | W8 -> fun cpu -> Int64.of_int (Char.code (Bytes.unsafe_get cpu.Cpu.regs i)))
  | Imm v -> let v = S.truncate w v in fun _ -> v
  | Mem m ->
    let ea = ea_fn m in
    (match w with
     | W64 -> fun cpu -> Memory.read_u64 cpu.Cpu.mem (ea cpu)
     | _ ->
       let n = width_bytes w in
       fun cpu -> Memory.read cpu.Cpu.mem (ea cpu) n)

let write_fn w (o : operand) : Cpu.t -> int64 -> unit =
  match o with
  | Reg r ->
    let i = reg_off r in
    (match w with
     | W64 -> fun cpu v -> Bytes.set_int64_le cpu.Cpu.regs i v
     | W32 -> fun cpu v -> Bytes.set_int64_le cpu.Cpu.regs i (Int64.logand v 0xFFFFFFFFL)
     | W16 -> fun cpu v -> Bytes.set_uint16_le cpu.Cpu.regs i (Int64.to_int v land 0xFFFF)
     | W8 ->
       fun cpu v ->
         Bytes.unsafe_set cpu.Cpu.regs i (Char.unsafe_chr (Int64.to_int v land 0xFF)))
  | Mem m ->
    let ea = ea_fn m in
    (match w with
     | W64 -> fun cpu v -> Memory.write_u64 cpu.Cpu.mem (ea cpu) v
     | _ ->
       let n = width_bytes w in
       fun cpu v -> Memory.write cpu.Cpu.mem (ea cpu) n v)
  | Imm _ -> fun _ _ -> raise (Exec_fault "write to immediate")

let rsp_o = reg_index RSP lsl 3

(* Compile one instruction into a closure.  [next] is the address just past
   the instruction; every closure stores it to [rip] first, mirroring the
   reference stepper's fetch/advance/execute order so that faults observe
   the same CPU state under either engine.  Operand resolution, immediate
   truncation and relative-target arithmetic happen here, once. *)
let compile_instr (i : instr) ~(next : int64) : Cpu.t -> unit =
  match i with
  | Mov (W64, Reg d, Reg s) ->
    let dof = reg_off d and sof = reg_off s in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      Bytes.set_int64_le regs dof (Bytes.get_int64_le regs sof)
  | Mov (W64, Reg d, Imm v) ->
    let dof = reg_off d in
    fun cpu ->
      Cpu.set_rip cpu (next);
      Bytes.set_int64_le cpu.Cpu.regs dof v
  | Mov (W64, Reg d, Mem { base = Some b; index = None; disp }) ->
    (* Full-width loads through [base+disp] (locals, spilled temps) are the
       most retired memory shape after the stack ops; the page-local path is
       inlined with the address kept unboxed, duplicating the register store
       into both branches so the hot one makes no calls. *)
    let dof = reg_off d and bo = reg_off b in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let addr = Int64.add (Bytes.get_int64_le regs bo) disp in
      let off = Int64.to_int addr land (Memory.page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical addr Memory.page_bits) in
      if off <= Memory.page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        Bytes.set_int64_le regs dof (Bytes.get_int64_le p.Memory.data off)
      end
      else Bytes.set_int64_le regs dof (Memory.read_straddle m idx off 8)
  | Mov (W64, Reg d, Mem { base = None; index = None; disp }) ->
    (* Absolute loads (globals): page index and offset are compile-time
       constants, so the hot path is a compare and two byte-buffer reads. *)
    let dof = reg_off d in
    let off = Int64.to_int disp land (Memory.page_size - 1) in
    let idx = Int64.to_int (Int64.shift_right_logical disp Memory.page_bits) in
    if off <= Memory.page_size - 8 then
      fun cpu ->
        Cpu.set_rip cpu (next);
        let regs = cpu.Cpu.regs in
        let m = cpu.Cpu.mem in
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        Bytes.set_int64_le regs dof (Bytes.get_int64_le p.Memory.data off)
    else
      fun cpu ->
        Cpu.set_rip cpu (next);
        Bytes.set_int64_le cpu.Cpu.regs dof
          (Memory.read_straddle cpu.Cpu.mem idx off 8)
  | Mov (W64, Mem { base = Some b; index = None; disp }, Reg s) ->
    (* The matching store shape; mirrors [write_u64] including the sticky
       code-page version bump, so self-modifying stores stay exact. *)
    let sof = reg_off s and bo = reg_off b in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let addr = Int64.add (Bytes.get_int64_le regs bo) disp in
      let off = Int64.to_int addr land (Memory.page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical addr Memory.page_bits) in
      if off <= Memory.page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.write_page_slow m idx
        in
        if p.Memory.is_code then
          m.Memory.code_version <- m.Memory.code_version + 1;
        Bytes.set_int64_le p.Memory.data off (Bytes.get_int64_le regs sof)
      end
      else Memory.write_straddle m idx off 8 (Bytes.get_int64_le regs sof)
  | Mov (w, d, s) ->
    let rd = read_fn w s in
    let wr = write_fn w d in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let v = rd cpu in
      wr cpu v
  | Lea (r, m) ->
    let rof = reg_off r and ea = ea_fn m in
    fun cpu ->
      Cpu.set_rip cpu (next);
      Bytes.set_int64_le cpu.Cpu.regs rof (ea cpu)
  | Push (Reg r) ->
    (* The paper's chains live and die on the stack, so push/pop/ret inline
       the page-local memory fast path: with the address and value flowing
       unboxed from the register bytes into the page bytes, the hot branch
       performs no calls and no allocation.  Writes cannot fault (pages map
       lazily), and the RSP update precedes the store as in the reference. *)
    let sof = reg_off r in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      (* the value must be read before RSP moves: [push rsp] pushes the
         pre-decrement value (caught by the cross-engine random fuzzer) *)
      let v = Bytes.get_int64_le regs sof in
      let sp = Int64.sub (Bytes.get_int64_le regs rsp_o) 8L in
      let off = Int64.to_int sp land (Memory.page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp Memory.page_bits) in
      Bytes.set_int64_le regs rsp_o sp;
      if off <= Memory.page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.write_page_slow m idx
        in
        if p.Memory.is_code then
          m.Memory.code_version <- m.Memory.code_version + 1;
        Bytes.set_int64_le p.Memory.data off v
      end
      else Memory.write_straddle m idx off 8 v
  | Push s ->
    let rd = read_fn W64 s in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let v = rd cpu in
      let regs = cpu.Cpu.regs in
      let sp = Int64.sub (Bytes.get_int64_le regs rsp_o) 8L in
      Bytes.set_int64_le regs rsp_o sp;
      Memory.write_u64 cpu.Cpu.mem sp v
  | Pop (Reg r) ->
    let dof = reg_off r in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = Bytes.get_int64_le regs rsp_o in
      let off = Int64.to_int sp land (Memory.page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp Memory.page_bits) in
      if off <= Memory.page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        let v = Bytes.get_int64_le p.Memory.data off in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
        Bytes.set_int64_le regs dof v
      end
      else begin
        let v = Memory.read_straddle m idx off 8 in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
        Bytes.set_int64_le regs dof v
      end
  | Pop d ->
    let wr = write_fn W64 d in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let sp = Bytes.get_int64_le regs rsp_o in
      let v = Memory.read_u64 cpu.Cpu.mem sp in
      Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
      wr cpu v
  | Ret ->
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = Bytes.get_int64_le regs rsp_o in
      let off = Int64.to_int sp land (Memory.page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp Memory.page_bits) in
      if off <= Memory.page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        let v = Bytes.get_int64_le p.Memory.data off in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
        Cpu.set_rip cpu (v)
      end
      else begin
        let v = Memory.read_straddle m idx off 8 in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
        Cpu.set_rip cpu (v)
      end
  | Alu (o, W64, Reg d, Reg s) ->
    (* The flag formulas are written into each body rather than shared
       through helpers: with no call in the closure, the operands and the
       result stay unboxed from register load to register store, so a
       64-bit register ALU retire neither calls nor allocates. *)
    let dof = reg_off d and sof = reg_off s in
    (match o with
     | Add ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.add a b in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand a b)
             (Int64.logand (Int64.logor a b) (Int64.lognot r)) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Adc ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.add (Int64.add a b) (if cpu.Cpu.cf then 1L else 0L) in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand a b)
             (Int64.logand (Int64.logor a b) (Int64.lognot r)) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Sub ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.sub a b in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand (Int64.lognot a) b)
             (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Sbb ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.sub (Int64.sub a b) (if cpu.Cpu.cf then 1L else 0L) in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand (Int64.lognot a) b)
             (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Cmp ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.sub a b in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand (Int64.lognot a) b)
             (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         ignore r
     | And ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.logand a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Or ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.logor a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Xor ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.logxor a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Test ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let b = Bytes.get_int64_le regs sof in
         let r = Int64.logand a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         ignore r)
  | Alu (o, W64, Reg d, Imm bv) ->
    let dof = reg_off d in
    let b = bv in
    (match o with
     | Add ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.add a b in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand a b)
             (Int64.logand (Int64.logor a b) (Int64.lognot r)) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Adc ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.add (Int64.add a b) (if cpu.Cpu.cf then 1L else 0L) in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand a b)
             (Int64.logand (Int64.logor a b) (Int64.lognot r)) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Sub ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.sub a b in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand (Int64.lognot a) b)
             (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Sbb ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.sub (Int64.sub a b) (if cpu.Cpu.cf then 1L else 0L) in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand (Int64.lognot a) b)
             (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Cmp ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.sub a b in
         cpu.Cpu.cf <-
           Int64.logor (Int64.logand (Int64.lognot a) b)
             (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
         cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         ignore r
     | And ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.logand a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Or ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.logor a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Xor ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.logxor a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         Bytes.set_int64_le regs dof r
     | Test ->
       fun cpu ->
         Cpu.set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let a = Bytes.get_int64_le regs dof in
         let r = Int64.logand a b in
         cpu.Cpu.cf <- false;
         cpu.Cpu.o_f <- false;
         cpu.Cpu.zf <- r = 0L;
         cpu.Cpu.sf <- r < 0L;
         cpu.Cpu.pf <- String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001';
         ignore r)
  | Alu (o, W64, d, s) ->
    (* Full-width ALU ops dominate the minic code the rewriter emits; at
       W64 truncation is the identity, so the compiled body is the bare
       int64 operation plus the specialized flag formulas. *)
    let ra = read_fn W64 d in
    let rb = read_fn W64 s in
    (match o with
     | Add ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.add a b in
         flags_add64 cpu a b r;
         wr cpu r
     | Adc ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.add (Int64.add a b) (if cpu.Cpu.cf then 1L else 0L) in
         flags_add64 cpu a b r;
         wr cpu r
     | Sub ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.sub a b in
         flags_sub64 cpu a b r;
         wr cpu r
     | Sbb ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.sub (Int64.sub a b) (if cpu.Cpu.cf then 1L else 0L) in
         flags_sub64 cpu a b r;
         wr cpu r
     | Cmp ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         flags_sub64 cpu a b (Int64.sub a b)
     | And ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let r = Int64.logand (ra cpu) (rb cpu) in
         flags_logic64 cpu r;
         wr cpu r
     | Or ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let r = Int64.logor (ra cpu) (rb cpu) in
         flags_logic64 cpu r;
         wr cpu r
     | Xor ->
       let wr = write_fn W64 d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let r = Int64.logxor (ra cpu) (rb cpu) in
         flags_logic64 cpu r;
         wr cpu r
     | Test ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         flags_logic64 cpu (Int64.logand (ra cpu) (rb cpu)))
  | Alu (o, w, d, s) ->
    let ra = read_fn w d in
    let rb = read_fn w s in
    (match o with
     | Add ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = S.truncate w (Int64.add a b) in
         flags_add cpu w a b r;
         wr cpu r
     | Adc ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let c = if cpu.Cpu.cf then 1L else 0L in
         let r = S.truncate w (Int64.add (Int64.add a b) c) in
         flags_add cpu w a b r;
         wr cpu r
     | Sub ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = S.truncate w (Int64.sub a b) in
         flags_sub cpu w a b r;
         wr cpu r
     | Sbb ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let c = if cpu.Cpu.cf then 1L else 0L in
         let r = S.truncate w (Int64.sub (Int64.sub a b) c) in
         flags_sub cpu w a b r;
         wr cpu r
     | Cmp ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         flags_sub cpu w a b (S.truncate w (Int64.sub a b))
     | And ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.logand a b in
         flags_logic cpu w r;
         wr cpu r
     | Or ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.logor a b in
         flags_logic cpu w r;
         wr cpu r
     | Xor ->
       let wr = write_fn w d in
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         let r = Int64.logxor a b in
         flags_logic cpu w r;
         wr cpu r
     | Test ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let b = rb cpu in
         flags_logic cpu w (Int64.logand a b))
  | Unary (o, w, d) ->
    let ra = read_fn w d in
    let wr = write_fn w d in
    (match o with
     | Neg ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let r = S.truncate w (Int64.neg a) in
         flags_sub cpu w 0L a r;
         wr cpu r
     | Not ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         wr cpu (S.truncate w (Int64.lognot (ra cpu)))
     | Inc ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let r = S.truncate w (Int64.add a 1L) in
         cpu.Cpu.o_f <- S.overflow_add w a 1L r;
         set_zsp cpu w r;
         wr cpu r
     | Dec ->
       fun cpu ->
         Cpu.set_rip cpu (next);
         let a = ra cpu in
         let r = S.truncate w (Int64.sub a 1L) in
         cpu.Cpu.o_f <- S.overflow_sub w a 1L r;
         set_zsp cpu w r;
         wr cpu r)
  | Cmov (cc, r, s) ->
    let rof = reg_off r in
    let rd = read_fn W64 s in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let v = rd cpu in
      if Cpu.cc_holds cpu cc then Bytes.set_int64_le cpu.Cpu.regs rof v
  | Setcc (cc, d) ->
    let wr = write_fn W8 d in
    fun cpu ->
      Cpu.set_rip cpu (next);
      wr cpu (if Cpu.cc_holds cpu cc then 1L else 0L)
  | Jmp (J_rel d) ->
    let tgt = Int64.add next (Int64.of_int d) in
    fun cpu -> Cpu.set_rip cpu (tgt)
  | Jmp (J_op a) ->
    let rd = read_fn W64 a in
    fun cpu ->
      Cpu.set_rip cpu (next);
      Cpu.set_rip cpu (rd cpu)
  | Jcc (cc, d) ->
    let tgt = Int64.add next (Int64.of_int d) in
    fun cpu -> Cpu.set_rip cpu ((if Cpu.cc_holds cpu cc then tgt else next))
  | Call (J_rel d) ->
    let tgt = Int64.add next (Int64.of_int d) in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let regs = cpu.Cpu.regs in
      let sp = Int64.sub (Bytes.get_int64_le regs rsp_o) 8L in
      Bytes.set_int64_le regs rsp_o sp;
      Memory.write_u64 cpu.Cpu.mem sp next;
      Cpu.set_rip cpu (tgt)
  | Call (J_op a) ->
    let rd = read_fn W64 a in
    fun cpu ->
      Cpu.set_rip cpu (next);
      let tgt = rd cpu in
      let regs = cpu.Cpu.regs in
      let sp = Int64.sub (Bytes.get_int64_le regs rsp_o) 8L in
      Bytes.set_int64_le regs rsp_o sp;
      Memory.write_u64 cpu.Cpu.mem sp next;
      Cpu.set_rip cpu (tgt)
  | Hlt ->
    fun cpu ->
      Cpu.set_rip cpu (next);
      cpu.Cpu.halted <- true
  | Nop -> fun cpu -> Cpu.set_rip cpu (next)
  | Imul2 (W64, r, s) ->
    (* The product is taken mod 2^64 before the overflow test, so at full
       width CF = OF = 0 (see [Semantics.Make]). *)
    let rof = reg_off r and rb = read_fn W64 s in
    fun cpu ->
      Cpu.set_rip cpu next;
      let b = rb cpu in
      let regs = cpu.Cpu.regs in
      let r = Int64.mul (Bytes.get_int64_le regs rof) b in
      cpu.Cpu.cf <- false;
      cpu.Cpu.o_f <- false;
      set_zsp64 cpu r;
      Bytes.set_int64_le regs rof r
  | Imul2 (w, r, s) ->
    let ra = read_fn w (Reg r) and rb = read_fn w s in
    let wr = write_fn w (Reg r) in
    fun cpu ->
      Cpu.set_rip cpu next;
      let a = ra cpu in
      let full = Int64.mul (S.sign_extend w a) (S.sign_extend w (rb cpu)) in
      let r = S.truncate w full in
      let c = S.sign_extend w r <> full in
      cpu.Cpu.cf <- c;
      cpu.Cpu.o_f <- c;
      set_zsp cpu w r;
      wr cpu r
  | Movzx _ | Movsx _ | MulDiv _ | Shift _ | Leave | Xchg _ | Lahf | Sahf ->
    (* Left to the reference semantics: on the Fig. 5 images these retire
       about 1% of instructions (shifts up to 1.0%, lahf and sahf 0.1%
       each, movzx at most 0.1%).  The win is skipping fetch/decode. *)
    fun cpu ->
      Cpu.set_rip cpu (next);
      exec_instr cpu i

(* Conservative may-write-memory classification, used to decide whether a
   block needs mid-block staleness checks at all. *)
let writes_mem = function
  | Push _ | Call _ | Xchg _ -> true
  | Mov (_, Mem _, _) | Alu (_, _, Mem _, _) | Unary (_, _, Mem _)
  | Setcc (_, Mem _) | Shift (_, _, Mem _, _) | Pop (Mem _) -> true
  | Mov _ | Movzx _ | Movsx _ | Lea _ | Pop _ | Alu _ | Unary _ | Imul2 _
  | MulDiv _ | Shift _ | Cmov _ | Setcc _ | Jmp _ | Jcc _ | Ret | Leave | Nop
  | Hlt | Lahf | Sahf -> false

(* Control transfers (and Hlt) end a block: Call too, unlike
   [Isa.is_terminator], because the return address must be live in the
   block cache key space for the callee's eventual ret. *)
let ends_block = function
  | Jmp _ | Jcc _ | Ret | Call _ | Hlt -> true
  | Mov _ | Movzx _ | Movsx _ | Lea _ | Push _ | Pop _ | Alu _ | Unary _
  | Imul2 _ | MulDiv _ | Shift _ | Cmov _ | Setcc _ | Leave | Xchg _ | Nop
  | Lahf | Sahf -> false

(* Safety valve for pathological byte streams (difftest wild runs can walk
   long runs of valid-decoding junk before faulting). *)
let max_block_instrs = 128

(* Fuse a trailing (op, ret) pair into one slot.  Under ROP rewriting most
   retired instructions come in exactly this shape — a one-instruction gadget
   body plus its ret — so the pair is worth a dedicated closure: one slot
   dispatch instead of two, and for [pop r; ret] one page resolve for both
   stack reads.  Only called for non-writing ops in non-writing blocks; the
   fused closure counts the first retire itself (the run loop counts slots).
   [pop rsp; ret] must not take the specialized path: the ret's read goes
   through the popped rsp, which the generic pair composition gets right. *)
let fuse_with_ret (i : instr) ~(next1 : int64) ~(next2 : int64) : Cpu.t -> unit =
  match i with
  | Pop (Reg r) when r <> RSP ->
    let dof = reg_off r in
    let cold_pop = compile_instr i ~next:next1 in
    let cold_ret = compile_instr Ret ~next:next2 in
    fun cpu ->
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = Bytes.get_int64_le regs rsp_o in
      let off = Int64.to_int sp land (Memory.page_size - 1) in
      if off <= Memory.page_size - 16 then begin
        (* both reads in one page: resolve it once; after the reads nothing
           can fault, so the pop's intermediate state is unobservable *)
        Cpu.set_rip cpu next1;
        let idx = Int64.to_int (Int64.shift_right_logical sp Memory.page_bits) in
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        let v = Bytes.get_int64_le p.Memory.data off in
        let ra = Bytes.get_int64_le p.Memory.data (off + 8) in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 16L);
        Bytes.set_int64_le regs dof v;
        cpu.Cpu.steps <- cpu.Cpu.steps + 1;
        Cpu.set_rip cpu ra
      end
      else begin
        cold_pop cpu;
        cpu.Cpu.steps <- cpu.Cpu.steps + 1;
        cold_ret cpu
      end
  | _ ->
    (* Generic pair: run the op's own closure, then the ret body inline —
       the ret re-reads rsp, so ops that move it (pop rsp) stay correct. *)
    let op = compile_instr i ~next:next1 in
    fun cpu ->
      op cpu;
      cpu.Cpu.steps <- cpu.Cpu.steps + 1;
      Cpu.set_rip cpu next2;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = Bytes.get_int64_le regs rsp_o in
      let off = Int64.to_int sp land (Memory.page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp Memory.page_bits) in
      if off <= Memory.page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        let v = Bytes.get_int64_le p.Memory.data off in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
        Cpu.set_rip cpu v
      end
      else begin
        let v = Memory.read_straddle m idx off 8 in
        Bytes.set_int64_le regs rsp_o (Int64.add sp 8L);
        Cpu.set_rip cpu v
      end

(* Decode a straight-line run starting at [rip0] and compile it.  An empty
   block means the very first decode failed: an invalid-instruction fault
   at dispatch.  A decode failure later just ends the block early; the next
   dispatch at that rip reports the fault with the right address. *)
let translate t rip0 =
  t.n_translated <- t.n_translated + 1;
  let items = ref [] in          (* (instr, next) pairs, last decoded first *)
  let n = ref 0 in
  let rip = ref rip0 in
  let stop = ref false in
  let writes = ref false in
  while not !stop do
    match decode_raw t !rip with
    | None -> stop := true
    | Some (i, len) ->
      let next = Int64.add !rip (Int64.of_int len) in
      items := (i, next) :: !items;
      incr n;
      rip := next;
      if writes_mem i then writes := true;
      if ends_block i || !n >= max_block_instrs then stop := true
  done;
  let writes = !writes in
  let compile acc items =
    List.fold_left (fun acc (i, next) -> compile_instr i ~next :: acc) acc items
  in
  let slots =
    match !items with
    | (Ret, next2) :: (op_i, next1) :: rest when not writes ->
      compile [ fuse_with_ret op_i ~next1 ~next2 ] rest
    | items -> compile [] items
  in
  { b_ops = Array.of_list slots; b_writes = writes; b_len = !n }

(* --- run loops ---------------------------------------------------------- *)

let run_ref ~fuel t =
  let rec go fuel =
    if t.cpu.Cpu.halted then Halted
    else if fuel <= 0 then Out_of_fuel
    else
      match step t with
      | () -> go (fuel - 1)
      | exception Exec_fault m -> Fault m
      | exception Memory.Fault (addr, m) ->
        Fault (Printf.sprintf "%s (0x%Lx)" m addr)
  in
  go fuel

(* Fast dispatch: translate-once, then run each block's closures in a tight
   loop.  Per retired instruction the loop does one closure call, a step
   increment and — only in blocks containing stores — a version compare;
   fetch, decode and operand resolution were paid at translation time.  The
   version compare after every op of a storing block keeps self-modifying
   code exact: a store into a code page aborts the rest of the block (each
   op already left [rip] correct), and the next dispatch re-translates from
   the new bytes — observably identical to the reference stepper re-fetching
   every instruction. *)
let run_fast ~fuel t =
  let cpu = t.cpu in
  let mem = cpu.Cpu.mem in
  let dm_keys = t.dm_keys in
  let dm_blocks = t.dm_blocks in
  (* Retire ops [i, quota); returns the count retired.  Stops early when a
     retired op bumped the memory's code version (a store hit a code page):
     the rest of the block may be stale, so control returns to dispatch,
     which flushes and re-translates.  Tail-recursive with immediate
     arguments — the loop allocates nothing. *)
  let rec exec_ops ops quota i v =
    if i >= quota then i
    else begin
      (Array.unsafe_get ops i) cpu;
      cpu.Cpu.steps <- cpu.Cpu.steps + 1;
      let i = i + 1 in
      if mem.Memory.code_version <> v then i else exec_ops ops quota i v
    end
  in
  (* Loop for blocks with no memory-writing op: nothing in them can move the
     code version, so the staleness compare is dropped and every slot runs.
     Fused slots retire two instructions, counting the extra one themselves;
     the caller charges the block's [b_len] against the fuel in one go. *)
  let rec exec_ops_nw ops n i =
    if i < n then begin
      (Array.unsafe_get ops i) cpu;
      cpu.Cpu.steps <- cpu.Cpu.steps + 1;
      exec_ops_nw ops n (i + 1)
    end
  in
  let rec go remaining =
    if cpu.Cpu.halted then Halted
    else if remaining <= 0 then Out_of_fuel
    else begin
      if mem.Memory.code_version <> t.cache_version then
        flush_caches t mem.Memory.code_version;
      t.n_dispatches <- t.n_dispatches + 1;
      let key = Int64.to_int (Cpu.rip cpu) in
      let slot = key land dm_mask in
      let block =
        if Array.unsafe_get dm_keys slot = key then
          Array.unsafe_get dm_blocks slot
        else begin
          t.n_dm_misses <- t.n_dm_misses + 1;
          let b =
            match ITbl.find_opt t.block_cache key with
            | Some b -> b
            | None ->
              let b = translate t (Cpu.rip cpu) in
              if Array.length b.b_ops > 0 then ITbl.replace t.block_cache key b;
              b
          in
          if Array.length b.b_ops > 0 then begin
            Array.unsafe_set dm_keys slot key;
            Array.unsafe_set dm_blocks slot b
          end;
          b
        end
      in
      let ops = block.b_ops in
      let n = Array.length ops in
      if n = 0 then
        raise
          (Exec_fault
             (Printf.sprintf "invalid instruction at 0x%Lx" (Cpu.rip cpu)));
      if block.b_writes then begin
        (* slots = instructions here, so fuel can stop the loop mid-block *)
        let quota = if remaining < n then remaining else n in
        let retired = exec_ops ops quota 0 t.cache_version in
        go (remaining - retired)
      end
      else if remaining >= block.b_len then begin
        (* b_len > n exactly when a fused slot retires two instructions *)
        t.n_fused <- t.n_fused + (block.b_len - n);
        (* fused gadgets and bare rets are single-slot: skip the loop *)
        if n = 1 then begin
          (Array.unsafe_get ops 0) cpu;
          cpu.Cpu.steps <- cpu.Cpu.steps + 1
        end
        else exec_ops_nw ops n 0;
        go (remaining - block.b_len)
      end
      else begin
        (* Fuel expires inside this block.  Fused slots retire two
           instructions at once, so retire the last [remaining] one at a
           time through the reference fetch path instead — observationally
           identical, and only ever runs in the turn fuel hits zero. *)
        let k = ref remaining in
        while !k > 0 && not cpu.Cpu.halted do
          step t;
          decr k
        done;
        go !k
      end
    end
  in
  try go fuel with
  | Exec_fault m -> Fault m
  | Memory.Fault (addr, m) -> Fault (Printf.sprintf "%s (0x%Lx)" m addr)

(* Run until halt, fault, or [fuel] instructions.  A tracer hook needs the
   (rip, instr) pair before every retire, which is exactly the reference
   stepper's fetch loop — so an installed [on_step] routes there, keeping
   taint/ropaware/coverage observations identical under either engine. *)
let run ?(fuel = max_int) t =
  match t.engine with
  | Ref -> run_ref ~fuel t
  | Fast -> if t.on_step <> None then run_ref ~fuel t else run_fast ~fuel t

(* Export the engine's lifetime counters into the metrics registry.  Cold
   path — Runner calls it once per completed run; the guard means a
   metrics-disabled run pays one bool load here and nothing anywhere else. *)
let publish_metrics t =
  if Obs.Metrics.enabled () then begin
    let c = Obs.Metrics.count in
    c "exec.steps" t.cpu.Cpu.steps;
    c "exec.block_dispatches" t.n_dispatches;
    c "exec.dm_hits" (t.n_dispatches - t.n_dm_misses);
    c "exec.blocks_translated" t.n_translated;
    c "exec.cache_flushes" t.n_flushes;
    c "exec.fused_retires" t.n_fused;
    c "exec.decode_cache_misses" t.n_decode_misses;
    c "exec.pages_touched" (Memory.page_count t.cpu.Cpu.mem);
    Obs.Metrics.observe_named "exec.steps_per_run" t.cpu.Cpu.steps
  end

(* Concrete execution of x64-lite.

   The only execution engine used by the obfuscated programs themselves.
   The reference stepper is [Semantics.Make] instantiated over the CPU; the
   symbolic stepper in lib/symex is the same functor over expressions.

   The block-translating fast engine below compiles each decoded
   instruction into a closure once and is differentially tested against
   the reference.  It specializes only the shapes the workloads retire:
   64-bit mov, lea, push/pop of a register, ret, 64-bit ALU ops, 64-bit
   inc/dec/neg/not of a register, imul r64, r64, setcc of a register and
   the control transfers.  Every 64-bit ALU flag goes through one inlined
   kernel, [alu64].  Every other shape runs the reference semantics
   ([exec_instr]) from its closure, so it skips fetch and decode but shares
   the one definition.  Decode and block caches keyed by absolute address
   make repeated chain execution cheap; stores into decoded pages
   invalidate them. *)

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
  let defer th = th ()

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

(* --- layout constants and unchecked accessors -------------------------- *)

(* dune's dev profile compiles every module [-opaque], so a constant of
   another module is a load from that module's block at every use: a page
   shift by [Memory.page_bits] becomes a shift by a register, and an offset
   like [Cpu.rip_off] a load before every store.  The fast engine's hot
   paths use these literals instead, checked against the originals once,
   when the module initialises. *)
let page_bits = 12
let page_size = 4096
let rip_off = 128
let rsp_o = 32
let regs_len = rip_off + 8       (* 16 registers and rip, 8 bytes each *)

let () =
  if page_bits <> Memory.page_bits || page_size <> Memory.page_size
     || rip_off <> Cpu.rip_off || rsp_o <> reg_index RSP lsl 3
     || Sys.big_endian
  then failwith "Exec: layout constants disagree with Memory and Cpu"

(* Native-endian 8-byte accesses with no bounds check: little-endian, as
   checked above.  [Bytes.get_int64_le] re-derives the buffer's length from
   its header and last byte on every call; these skip that, so they are used
   only where the offset is in bounds by construction:
   - a register slot, through [get_reg]/[set_reg] below;
   - a page offset the caller has range-checked against [page_size - 8]
     (or [- 16] for two reads), in a page reached through a cache-key hit
     or a table probe, which always has [page_size] data bytes
     (memory.ml, [dummy_page]).
   Every other access keeps the checked accessors. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A register slot: [o] is [reg_index r lsl 3] or [rip_off], so [o + 8 <=
   regs_len], and [make] refuses a CPU whose buffer is shorter (the field is
   immutable and bytes never shrink).  The closures compiled below assume
   a CPU that [make] accepts, as it accepts every [Cpu.create]. *)
let[@inline] get_reg regs o = get64u regs o
let[@inline] set_reg regs o v = set64u regs o v

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
   collisions simply fall through to the hashtable.

   The front is also flat for the commonest block, one non-writing slot (a
   fused [op; ret] gadget or a bare [ret]): [dm_op] holds that slot's
   closure and [dm_len] the block's [b_len], so a hit calls the closure
   without the [dm_blocks -> block -> b_ops -> ops.(0)] chase.  Any other
   block stores [no_op] there, which sends the hit through [dm_blocks]. *)
let dm_bits = 11
let dm_size = 1 lsl dm_bits
let dm_mask = dm_size - 1

type t = {
  cpu : Cpu.t;
  decode_cache : (X86.Isa.instr * int) ITbl.t;
  block_cache : block ITbl.t;
  dm_keys : int array;           (* min_int = empty slot *)
  dm_blocks : block array;
  dm_op : (Cpu.t -> unit) array; (* the one slot, or [no_op] *)
  dm_len : int array;            (* [b_len] of the slot's block *)
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

(* Compared by address only; never run. *)
let no_op : Cpu.t -> unit = fun _ -> ()

(* Raises [Invalid_argument] on a register buffer too short for the
   unchecked register accesses ([get_reg]): [Cpu.t] is a public record. *)
let make ?(engine = Fast) cpu =
  if Bytes.length cpu.Cpu.regs < regs_len then
    invalid_arg
      (Printf.sprintf "Exec.make: register buffer of %d bytes, need %d"
         (Bytes.length cpu.Cpu.regs) regs_len);
  { cpu;
    decode_cache = ITbl.create 1024;
    block_cache = ITbl.create 256;
    dm_keys = Array.make dm_size min_int;
    dm_blocks = Array.make dm_size empty_block;
    dm_op = Array.make dm_size no_op;
    dm_len = Array.make dm_size 0;
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
  Array.fill t.dm_op 0 dm_size no_op;
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
    if off + X86.Encode.max_instr_len <= page_size then
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
  let rip = Cpu.rip cpu in
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
    if d = 0L then (fun cpu -> get_reg cpu.Cpu.regs bo)
    else fun cpu -> Int64.add (get_reg cpu.Cpu.regs bo) d
  | None, Some (r, sc) ->
    let ro = reg_off r and sc = Int64.of_int sc and d = m.disp in
    fun cpu -> Int64.add (Int64.mul (get_reg cpu.Cpu.regs ro) sc) d
  | Some b, Some (r, sc) ->
    let bo = reg_off b and ro = reg_off r
    and sc = Int64.of_int sc and d = m.disp in
    fun cpu ->
      Int64.add
        (Int64.add (get_reg cpu.Cpu.regs bo)
           (Int64.mul (get_reg cpu.Cpu.regs ro) sc))
        d

(* Sub-width register reads load just the low bytes (little-endian layout),
   so no masking is needed; sub-width writes are single partial stores with
   the x86 merge (8/16-bit) and zero-extend (32-bit) semantics built in. *)
let read_fn w (o : operand) : Cpu.t -> int64 =
  match o with
  | Reg r ->
    let i = reg_off r in
    (match w with
     | W64 -> fun cpu -> get_reg cpu.Cpu.regs i
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
     | W64 -> fun cpu v -> set_reg cpu.Cpu.regs i v
     | W32 -> fun cpu v -> set_reg cpu.Cpu.regs i (Int64.logand v 0xFFFFFFFFL)
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

(* [rip] accessors for the compiled closures and [run_fast].  Under
   [-opaque], [Cpu.set_rip] and [Cpu.rip] are calls that take and return a
   boxed int64: every [ret] would allocate its target.  Inlined here, the
   value stays unboxed from the stack page to the register buffer. *)
let[@inline] set_rip cpu v = set_reg cpu.Cpu.regs rip_off v
let[@inline] rip cpu = get_reg cpu.Cpu.regs rip_off

(* --- the 64-bit ALU kernel --------------------------------------------- *)

(* The fast engine's flag formulas, written once.  At 64 bits
   [S.truncate] is the identity and the sign bit is a sign compare, so
   each of [Semantics.Make]'s formulas collapses to straight-line int64
   arithmetic.  Both helpers are inlined into the closures that call them:
   with no call between register load and register store, operands and
   result stay unboxed, so a register-operand retire does not allocate
   (test/test_exec_fast.ml, "allocation fence"). *)

let[@inline] set_zsp64 cpu r =
  cpu.Cpu.zf <- r = 0L;
  cpu.Cpu.sf <- r < 0L;
  cpu.Cpu.pf <-
    String.unsafe_get S.parity_table (Int64.to_int r land 0xFF) = '\001'

(* [a o b]: sets all five flags and returns the result, which [Cmp] and
   [Test] discard (see [alu_writes]). *)
let[@inline] alu64 cpu o a b =
  let r =
    match o with
    | Add -> Int64.add a b
    | Adc -> Int64.add (Int64.add a b) (if cpu.Cpu.cf then 1L else 0L)
    | Sub | Cmp -> Int64.sub a b
    | Sbb -> Int64.sub (Int64.sub a b) (if cpu.Cpu.cf then 1L else 0L)
    | And | Test -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
  in
  (match o with
   | Add | Adc ->
     cpu.Cpu.cf <-
       Int64.logor (Int64.logand a b)
         (Int64.logand (Int64.logor a b) (Int64.lognot r)) < 0L;
     cpu.Cpu.o_f <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L
   | Sub | Sbb | Cmp ->
     cpu.Cpu.cf <-
       Int64.logor (Int64.logand (Int64.lognot a) b)
         (Int64.logand (Int64.logor (Int64.lognot a) b) r) < 0L;
     cpu.Cpu.o_f <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L
   | And | Or | Xor | Test ->
     cpu.Cpu.cf <- false;
     cpu.Cpu.o_f <- false);
  set_zsp64 cpu r;
  r

let alu_writes = function Cmp | Test -> false | _ -> true

let[@inline] fits_s32 v = Int64.shift_right v 31 = Int64.shift_right v 63

(* Signed overflow of [r = a * b] mod 2^64.  Operands within 32 signed bits
   cannot overflow; otherwise a non-zero [a] divides the wrapped product
   back to [b] exactly when it did not wrap, except min_int = -1 * min_int.
   Unlike [S.mulhi_s], it neither calls out nor allocates. *)
let[@inline] imul_overflows64 a b r =
  not (fits_s32 a && fits_s32 b)
  && a <> 0L
  && (Int64.div r a <> b || (a = -1L && b = Int64.min_int))

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
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      set_reg regs dof (get_reg regs sof)
  | Mov (W64, Reg d, Imm v) ->
    let dof = reg_off d in
    fun cpu ->
      set_rip cpu next;
      set_reg cpu.Cpu.regs dof v
  | Mov (W64, Reg d, Mem { base = Some b; index = None; disp }) ->
    (* Full-width loads through [base+disp] (locals, spilled temps) are the
       most retired memory shape after the stack ops; the page-local path is
       inlined with the address kept unboxed, duplicating the register store
       into both branches so the hot one makes no calls. *)
    let dof = reg_off d and bo = reg_off b in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let addr = Int64.add (get_reg regs bo) disp in
      let off = Int64.to_int addr land (page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical addr page_bits) in
      if off <= page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        set_reg regs dof (get64u p.Memory.data off)  (* off <= page_size - 8 *)
      end
      else set_reg regs dof (Memory.read_straddle m idx off 8)
  | Mov (W64, Reg d, Mem { base = None; index = None; disp }) ->
    (* Absolute loads (globals): page index and offset are compile-time
       constants, so the hot path is a compare and two byte-buffer reads. *)
    let dof = reg_off d in
    let off = Int64.to_int disp land (page_size - 1) in
    let idx = Int64.to_int (Int64.shift_right_logical disp page_bits) in
    if off <= page_size - 8 then
      fun cpu ->
        set_rip cpu next;
        let regs = cpu.Cpu.regs in
        let m = cpu.Cpu.mem in
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.read_page_cold m idx off
        in
        set_reg regs dof (get64u p.Memory.data off)  (* off <= page_size - 8 *)
    else
      fun cpu ->
        set_rip cpu next;
        set_reg cpu.Cpu.regs dof
          (Memory.read_straddle cpu.Cpu.mem idx off 8)
  | Mov (W64, Mem { base = Some b; index = None; disp }, Reg s) ->
    (* The matching store shape; mirrors [write_u64] including the sticky
       code-page version bump, so self-modifying stores stay exact. *)
    let sof = reg_off s and bo = reg_off b in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let addr = Int64.add (get_reg regs bo) disp in
      let off = Int64.to_int addr land (page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical addr page_bits) in
      if off <= page_size - 8 then begin
        let p =
          if m.Memory.last_idx = idx then m.Memory.last_page
          else Memory.write_page_slow m idx
        in
        if p.Memory.is_code then
          m.Memory.code_version <- m.Memory.code_version + 1;
        set64u p.Memory.data off (get_reg regs sof)  (* off <= page_size - 8 *)
      end
      else Memory.write_straddle m idx off 8 (get_reg regs sof)
  | Mov (w, d, s) ->
    let rd = read_fn w s in
    let wr = write_fn w d in
    fun cpu ->
      set_rip cpu next;
      let v = rd cpu in
      wr cpu v
  | Lea (r, m) ->
    let rof = reg_off r and ea = ea_fn m in
    fun cpu ->
      set_rip cpu next;
      set_reg cpu.Cpu.regs rof (ea cpu)
  | Push (Reg r) ->
    (* The paper's chains live and die on the stack, so push/pop/ret inline
       the page-local memory fast path: with the address and value flowing
       unboxed from the register bytes into the page bytes, the hot branch
       performs no calls and no allocation.  Writes cannot fault (pages map
       lazily), and the RSP update precedes the store as in the reference.
       They resolve the page through the memory's stack entry ([sp_idx]),
       which data loads and stores leave alone: a gadget body that touches
       a global between two rets does not evict the chain's page. *)
    let sof = reg_off r in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      (* the value must be read before RSP moves: [push rsp] pushes the
         pre-decrement value (caught by the cross-engine random fuzzer) *)
      let v = get_reg regs sof in
      let sp = Int64.sub (get_reg regs rsp_o) 8L in
      let off = Int64.to_int sp land (page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp page_bits) in
      set_reg regs rsp_o sp;
      if off <= page_size - 8 then begin
        let p =
          if m.Memory.sp_idx = idx then m.Memory.sp_page
          else Memory.stack_write_cold m idx
        in
        if p.Memory.is_code then
          m.Memory.code_version <- m.Memory.code_version + 1;
        set64u p.Memory.data off v  (* off <= page_size - 8 *)
      end
      else Memory.write_straddle m idx off 8 v
  | Pop (Reg r) ->
    let dof = reg_off r in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = get_reg regs rsp_o in
      let off = Int64.to_int sp land (page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp page_bits) in
      if off <= page_size - 8 then begin
        let p =
          if m.Memory.sp_idx = idx then m.Memory.sp_page
          else Memory.stack_read_cold m idx off
        in
        let v = get64u p.Memory.data off in  (* off <= page_size - 8 *)
        set_reg regs rsp_o (Int64.add sp 8L);
        set_reg regs dof v
      end
      else begin
        let v = Memory.read_straddle m idx off 8 in
        set_reg regs rsp_o (Int64.add sp 8L);
        set_reg regs dof v
      end
  | Ret ->
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = get_reg regs rsp_o in
      let off = Int64.to_int sp land (page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp page_bits) in
      if off <= page_size - 8 then begin
        let p =
          if m.Memory.sp_idx = idx then m.Memory.sp_page
          else Memory.stack_read_cold m idx off
        in
        let v = get64u p.Memory.data off in  (* off <= page_size - 8 *)
        set_reg regs rsp_o (Int64.add sp 8L);
        set_rip cpu v
      end
      else begin
        let v = Memory.read_straddle m idx off 8 in
        set_reg regs rsp_o (Int64.add sp 8L);
        set_rip cpu v
      end
  | Alu (o, W64, Reg d, Reg s) ->
    let dof = reg_off d and sof = reg_off s and wb = alu_writes o in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let r =
        alu64 cpu o (get_reg regs dof) (get_reg regs sof)
      in
      if wb then set_reg regs dof r
  | Alu (o, W64, Reg d, Imm b) ->
    let dof = reg_off d and wb = alu_writes o in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let r = alu64 cpu o (get_reg regs dof) b in
      if wb then set_reg regs dof r
  | Alu (o, W64, d, s) ->
    (* A memory operand: the reads keep the reference order, destination
       first, so a faulting access is the same one under either engine. *)
    let ra = read_fn W64 d and rb = read_fn W64 s in
    let wr = write_fn W64 d and wb = alu_writes o in
    fun cpu ->
      set_rip cpu next;
      let a = ra cpu in
      let b = rb cpu in
      let r = alu64 cpu o a b in
      if wb then wr cpu r
  | Unary (o, W64, Reg d) ->
    let dof = reg_off d in
    (match o with
     | Not ->
       fun cpu ->
         set_rip cpu next;
         let regs = cpu.Cpu.regs in
         set_reg regs dof (Int64.lognot (get_reg regs dof))
     | Neg ->
       fun cpu ->
         set_rip cpu next;
         let regs = cpu.Cpu.regs in
         set_reg regs dof (alu64 cpu Sub 0L (get_reg regs dof))
     | Inc | Dec ->
       (* an add or sub of 1 that leaves CF alone *)
       let op = if o = Inc then Add else Sub in
       fun cpu ->
         set_rip cpu next;
         let regs = cpu.Cpu.regs in
         let cf = cpu.Cpu.cf in
         let r = alu64 cpu op (get_reg regs dof) 1L in
         cpu.Cpu.cf <- cf;
         set_reg regs dof r)
  | Imul2 (W64, d, Reg s) ->
    let dof = reg_off d and sof = reg_off s in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let a = get_reg regs dof in
      let b = get_reg regs sof in
      let r = Int64.mul a b in
      let c = imul_overflows64 a b r in
      cpu.Cpu.cf <- c;
      cpu.Cpu.o_f <- c;
      set_zsp64 cpu r;
      set_reg regs dof r
  | Setcc (cc, Reg d) ->
    let dof = reg_off d in
    fun cpu ->
      set_rip cpu next;
      Bytes.unsafe_set cpu.Cpu.regs dof
        (if Cpu.cc_holds cpu cc then '\001' else '\000')
  | Jmp (J_rel d) ->
    let tgt = Int64.add next (Int64.of_int d) in
    fun cpu -> set_rip cpu tgt
  | Jmp (J_op a) ->
    let rd = read_fn W64 a in
    fun cpu ->
      set_rip cpu next;
      set_rip cpu (rd cpu)
  | Jcc (cc, d) ->
    let tgt = Int64.add next (Int64.of_int d) in
    fun cpu -> set_rip cpu (if Cpu.cc_holds cpu cc then tgt else next)
  | Call (J_rel d) ->
    let tgt = Int64.add next (Int64.of_int d) in
    fun cpu ->
      set_rip cpu next;
      let regs = cpu.Cpu.regs in
      let sp = Int64.sub (get_reg regs rsp_o) 8L in
      set_reg regs rsp_o sp;
      Memory.write_u64 cpu.Cpu.mem sp next;
      set_rip cpu tgt
  | Call (J_op a) ->
    let rd = read_fn W64 a in
    fun cpu ->
      set_rip cpu next;
      let tgt = rd cpu in
      let regs = cpu.Cpu.regs in
      let sp = Int64.sub (get_reg regs rsp_o) 8L in
      set_reg regs rsp_o sp;
      Memory.write_u64 cpu.Cpu.mem sp next;
      set_rip cpu tgt
  | Hlt ->
    fun cpu ->
      set_rip cpu next;
      cpu.Cpu.halted <- true
  | Alu _ | Unary _ | Imul2 _ | Cmov _ | Setcc _ | Push _ | Pop _ | Nop
  | Movzx _ | Movsx _ | MulDiv _ | Shift _ | Leave | Xchg _ | Lahf | Sahf ->
    (* Left to the reference semantics.  On the Fig. 5 set and both @bench
       workloads, every shape here retires at most 1% of instructions
       (shifts up to 0.9%, movzx 0.7%, sub-width ALU 0.15%; the rest of
       the shapes this arm took over from hand-written arms at most
       0.01%).  The win is skipping fetch/decode. *)
    fun cpu ->
      set_rip cpu next;
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
      let sp = get_reg regs rsp_o in
      let off = Int64.to_int sp land (page_size - 1) in
      if off <= page_size - 16 then begin
        (* both reads in one page: resolve it once; after the reads nothing
           can fault, so the pop's intermediate state is unobservable *)
        set_rip cpu next1;
        let idx = Int64.to_int (Int64.shift_right_logical sp page_bits) in
        let p =
          if m.Memory.sp_idx = idx then m.Memory.sp_page
          else Memory.stack_read_cold m idx off
        in
        (* off <= page_size - 16: both reads in bounds *)
        let v = get64u p.Memory.data off in
        let ra = get64u p.Memory.data (off + 8) in
        set_reg regs rsp_o (Int64.add sp 16L);
        set_reg regs dof v;
        cpu.Cpu.steps <- cpu.Cpu.steps + 1;
        set_rip cpu ra
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
      set_rip cpu next2;
      let regs = cpu.Cpu.regs in
      let m = cpu.Cpu.mem in
      let sp = get_reg regs rsp_o in
      let off = Int64.to_int sp land (page_size - 1) in
      let idx = Int64.to_int (Int64.shift_right_logical sp page_bits) in
      if off <= page_size - 8 then begin
        let p =
          if m.Memory.sp_idx = idx then m.Memory.sp_page
          else Memory.stack_read_cold m idx off
        in
        let v = get64u p.Memory.data off in  (* off <= page_size - 8 *)
        set_reg regs rsp_o (Int64.add sp 8L);
        set_rip cpu v
      end
      else begin
        let v = Memory.read_straddle m idx off 8 in
        set_reg regs rsp_o (Int64.add sp 8L);
        set_rip cpu v
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
   every instruction.

   The loops are top-level functions with their state in arguments, not
   closures over it, so a warm [run] allocates nothing at all
   (test/test_exec_fast.ml, "dispatch fence"). *)

(* Retire ops [i, quota); returns the count retired.  Stops early when a
   retired op bumped the memory's code version (a store hit a code page):
   the rest of the block may be stale, so control returns to dispatch,
   which flushes and re-translates. *)
let rec exec_ops cpu ops quota i v =
  if i >= quota then i
  else begin
    (Array.unsafe_get ops i) cpu;
    cpu.Cpu.steps <- cpu.Cpu.steps + 1;
    let i = i + 1 in
    if cpu.Cpu.mem.Memory.code_version <> v then i
    else exec_ops cpu ops quota i v
  end

(* Loop for blocks with no memory-writing op: nothing in them can move the
   code version, so the staleness compare is dropped and every slot runs.
   Fused slots retire two instructions, counting the extra one themselves;
   the caller charges the block's [b_len] against the fuel in one go. *)
let rec exec_ops_nw cpu ops n i =
  if i < n then begin
    (Array.unsafe_get ops i) cpu;
    cpu.Cpu.steps <- cpu.Cpu.steps + 1;
    exec_ops_nw cpu ops n (i + 1)
  end

let rec go t cpu remaining =
  if cpu.Cpu.halted then Halted
  else if remaining <= 0 then Out_of_fuel
  else begin
    let mem = cpu.Cpu.mem in
    if mem.Memory.code_version <> t.cache_version then
      flush_caches t mem.Memory.code_version;
    t.n_dispatches <- t.n_dispatches + 1;
    let key = Int64.to_int (rip cpu) in
    let slot = key land dm_mask in
    if Array.unsafe_get t.dm_keys slot = key then begin
      let op = Array.unsafe_get t.dm_op slot in
      let len = Array.unsafe_get t.dm_len slot in
      if op != no_op && remaining >= len then begin
        (* the flat front: what [run_block] does for a one-slot
           non-writing block, whose slot retires [len] instructions *)
        t.n_fused <- t.n_fused + (len - 1);
        op cpu;
        cpu.Cpu.steps <- cpu.Cpu.steps + 1;
        go t cpu (remaining - len)
      end
      else run_block t cpu remaining (Array.unsafe_get t.dm_blocks slot)
    end
    else begin
      t.n_dm_misses <- t.n_dm_misses + 1;
      let b =
        match ITbl.find t.block_cache key with
        | b -> b
        | exception Not_found ->
          let b = translate t (rip cpu) in
          if Array.length b.b_ops > 0 then ITbl.replace t.block_cache key b;
          b
      in
      let n = Array.length b.b_ops in
      if n > 0 then begin
        t.dm_keys.(slot) <- key;
        t.dm_blocks.(slot) <- b;
        t.dm_op.(slot) <- (if n = 1 && not b.b_writes then b.b_ops.(0) else no_op);
        t.dm_len.(slot) <- b.b_len
      end;
      run_block t cpu remaining b
    end
  end

and run_block t cpu remaining block =
  let ops = block.b_ops in
  let n = Array.length ops in
  if n = 0 then
    raise
      (Exec_fault
         (Printf.sprintf "invalid instruction at 0x%Lx" (rip cpu)));
  if block.b_writes then begin
    (* slots = instructions here, so fuel can stop the loop mid-block *)
    let quota = if remaining < n then remaining else n in
    let retired = exec_ops cpu ops quota 0 t.cache_version in
    go t cpu (remaining - retired)
  end
  else if remaining >= block.b_len then begin
    (* b_len > n exactly when a fused slot retires two instructions; warm
       one-slot blocks take the flat front instead *)
    t.n_fused <- t.n_fused + (block.b_len - n);
    exec_ops_nw cpu ops n 0;
    go t cpu (remaining - block.b_len)
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
    go t cpu !k
  end

let run_fast ~fuel t =
  try go t t.cpu fuel with
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

(* Symbolic machine state and single-step transfer function: the x64-lite
   semantics of [Machine.Semantics.Make], instantiated over Expr values.

   Control flow stays concrete in RIP; branch and indirect-target decisions
   are surfaced as outcomes for the driving engine (SE forks, DSE follows the
   concrete witness).  Memory is a concrete base image under a persistent
   map from each written byte to its newest concrete write; symbolic
   addresses either produce first-class Load expressions over a write log
   (per-page theory-of-arrays flavour) or get concretized, depending on the
   engine's memory model (§VII-C3). *)

open X86.Isa
module E = Expr
module Sem = Machine.Semantics

module I64Map = Map.Make (Int64)
module IntMap = Map.Make (Int)

(* A concrete-address write: [size] bytes of [value] at [addr], the
   [seq]-th write to this memory. *)
type cwrite = { addr : int64; value : E.t; size : int; seq : int }

type smem = {
  base : Machine.Memory.t;
  cmap : cwrite I64Map.t;               (* byte address -> newest concrete
                                           write covering it *)
  sym_writes : (E.t * E.t * int) list;  (* newest first; once non-empty, all
                                           writes go here to keep ordering *)
  seq : int;
}

(* Flags are 0/1 expressions, each built the first time it is read: a step
   stores the formula unevaluated ([Symbolic.defer]).  [flag] and
   [set_flag] read and write them as expressions. *)
type t = {
  mutable regs : E.t array;             (* 16 *)
  mutable f_cf : E.t Lazy.t;
  mutable f_zf : E.t Lazy.t;
  mutable f_sf : E.t Lazy.t;
  mutable f_of : E.t Lazy.t;
  mutable f_pf : E.t Lazy.t;
  mutable mem : smem;
  mutable rip : int64;
  mutable constraints : Solver.constr list;   (* newest first *)
  mutable steps : int;
  (* symbolic addresses pinned by the memory model, newest first; the
     engines drain these and treat them as forkable decisions (this is the
     "pressure on the memory model" P1 induces, §V-E) *)
  mutable concretizations : (E.t * int64) list;
}

type outcome =
  | O_ok
  | O_branch of E.t * int64 * int64     (* cond, taken rip, fall-through rip *)
  | O_indirect of E.t                   (* symbolic control-transfer target *)
  | O_halt
  | O_fault of string

exception Sym_fault of string

(* Memory-model policy: [toa] keeps symbolic loads symbolic; otherwise
   [concretize] pins the address (returns None when infeasible). *)
type mem_model = {
  toa : bool;
  concretize : t -> E.t -> int64 option;
  on_write : E.t -> int -> unit;     (* observation hook (coverage probes) *)
}

let lazy_zero = Lazy.from_val E.zero

let create mem rip =
  { regs = Array.make 16 (E.Const 0L);
    f_cf = lazy_zero; f_zf = lazy_zero; f_sf = lazy_zero; f_of = lazy_zero;
    f_pf = lazy_zero;
    mem = { base = mem; cmap = I64Map.empty; sym_writes = []; seq = 0 };
    rip;
    constraints = [];
    steps = 0;
    concretizations = [] }

let copy t =
  { regs = Array.copy t.regs;
    f_cf = t.f_cf; f_zf = t.f_zf; f_sf = t.f_sf; f_of = t.f_of; f_pf = t.f_pf;
    mem = t.mem;
    rip = t.rip;
    constraints = t.constraints;
    steps = t.steps;
    concretizations = t.concretizations }

let get t r = t.regs.(reg_index r)
let set t r v = t.regs.(reg_index r) <- v

let flag_cell t = function
  | Sem.CF -> t.f_cf | Sem.ZF -> t.f_zf | Sem.SF -> t.f_sf
  | Sem.OF -> t.f_of | Sem.PF -> t.f_pf

let set_flag_cell t fl v =
  match fl with
  | Sem.CF -> t.f_cf <- v | Sem.ZF -> t.f_zf <- v
  | Sem.SF -> t.f_sf <- v | Sem.OF -> t.f_of <- v
  | Sem.PF -> t.f_pf <- v

let flag t fl = Lazy.force (flag_cell t fl)
let set_flag t fl e = set_flag_cell t fl (Lazy.from_val e)

let constrain t cond want = t.constraints <- { Solver.cond; want } :: t.constraints

(* --- memory ------------------------------------------------------------------ *)

(* Every write still visible on some byte, newest first. *)
let full_write_log m =
  let visible =
    I64Map.fold (fun _ (w : cwrite) acc -> IntMap.add w.seq w acc) m.cmap
      IntMap.empty
  in
  m.sym_writes
  @ IntMap.fold (fun _ w acc -> (E.Const w.addr, w.value, w.size) :: acc)
      visible []

let to_expr_mem m : E.mem = { E.base = m.base; writes = full_write_log m }

(* Does every byte of [a+i .. a+n) map to the write [w]? *)
let rec all_bytes m a n w i =
  i >= n
  || (match I64Map.find_opt (Int64.add a (Int64.of_int i)) m.cmap with
      | Some w' -> w' == w
      | None -> false)
     && all_bytes m a n w (i + 1)

let unmapped a = Sym_fault (Printf.sprintf "read of unmapped 0x%Lx" a)

let fold_bytes m a n =
  let r = ref (E.Const 0L) in
  for i = n - 1 downto 0 do
    let ba = Int64.add a (Int64.of_int i) in
    let b =
      match I64Map.find_opt ba m.cmap with
      | Some w ->
        let k = Int64.to_int (Int64.sub ba w.addr) in
        E.bin E.And
          (E.bin E.Shr w.value (E.Const (Int64.of_int (8 * k))))
          (E.Const 0xFFL)
      | None ->
        (match Machine.Memory.read_u8_opt m.base ba with
         | Some v -> E.Const (Int64.of_int v)
         | None -> raise (unmapped a))
    in
    r := E.bin E.Or (E.bin E.Shl !r (E.Const 8L)) b
  done;
  !r

(* Each byte is the newest write covering it, else the base image's.  A
   slot that is exactly one write reads as that write's value (stores are
   width-truncated), a slot with no written byte (the first one at or above
   [a] lies past it) as one Const, and any other slot is folded byte by
   byte, as is a slot that wraps the address space. *)
let read_concrete t a n =
  let m = t.mem in
  if m.sym_writes <> [] then
    (* sound fallback: keep the read symbolic over the full log *)
    E.load (to_expr_mem m) (E.Const a) n
  else
    let last = Int64.add a (Int64.of_int (n - 1)) in
    match I64Map.find_first_opt (fun k -> k >= a) m.cmap with
    | Some (k, w)
      when k = a && w.addr = a && w.size = n && all_bytes m a n w 1 ->
      w.value
    | Some (k, _) when k <= last -> fold_bytes m a n
    | Some _ | None when a <= last ->
      (match Machine.Memory.read m.base a n with
       | v -> E.Const v
       | exception Machine.Memory.Fault _ -> raise (unmapped a))
    | Some _ | None -> fold_bytes m a n

(* S2E-style store-back: when a register holding exactly the concretized
   expression exists, pin it to the constant; keeps state expressions small
   and mirrors how concretizing executors behave. *)
let store_back t addr_e a =
  for i = 0 to 15 do
    if t.regs.(i) == addr_e then t.regs.(i) <- E.Const a
  done

(* Concretize a symbolic address under the memory model, recording the
   choice as a path constraint and a forkable decision. *)
let pin ~model t addr_e =
  match model.concretize t addr_e with
  | Some a ->
    constrain t (E.bin E.Eq addr_e (E.Const a)) true;
    t.concretizations <- (addr_e, a) :: t.concretizations;
    store_back t addr_e a;
    a
  | None -> raise (Sym_fault "unresolvable symbolic address")

let mread ~model t addr_e n =
  match addr_e with
  | E.Const a -> read_concrete t a n
  | _ when model.toa -> E.load (to_expr_mem t.mem) addr_e n
  | _ -> read_concrete t (pin ~model t addr_e) n

let write_logged t addr_e n v =
  let m = t.mem in
  t.mem <-
    { m with sym_writes = (addr_e, v, n) :: m.sym_writes; seq = m.seq + 1 }

let write_concrete t a n v =
  let m = t.mem in
  let w = { addr = a; value = v; size = n; seq = m.seq } in
  let rec cover i cmap =
    if i = n then cmap
    else cover (i + 1) (I64Map.add (Int64.add a (Int64.of_int i)) w cmap)
  in
  t.mem <- { m with cmap = cover 0 m.cmap; seq = m.seq + 1 }

(* Without [toa] no write is ever logged, so a pinned address always
   lands in [cmap]. *)
let mwrite ~model t addr_e n v =
  model.on_write addr_e n;
  match addr_e with
  | E.Const a when t.mem.sym_writes = [] -> write_concrete t a n v
  | E.Const _ -> write_logged t addr_e n v
  | _ when model.toa -> write_logged t addr_e n v
  | _ -> write_concrete t (pin ~model t addr_e) n v

(* The Sdiv/Udiv expression algebra models the faulting cases away (zero
   divisor -> quotient 0, overflowing idiv -> 0), but the concrete machine
   raises #DE there.  Before committing the symbolic quotient, replay the
   division under the path's witness (the same evaluator the memory model
   concretizes addresses with) and fault exactly where the concrete machine
   would, so concolic fault paths match concrete execution. *)
let check_div_fault ~model t ~signed ~rdx ~rax ~v =
  match
    model.concretize t rdx, model.concretize t rax, model.concretize t v
  with
  | Some hi, Some lo, Some d ->
    (match
       if signed then Sem.divmod_s128 hi lo d
       else Sem.divmod_u128 hi lo d
     with
     | (_ : int64 * int64) -> ()
     | exception Division_by_zero -> raise (Sym_fault "divide by zero")
     | exception Sem.Div_overflow ->
       raise (Sym_fault "divide overflow"))
  | _ -> ()   (* unresolvable under this model: keep the total algebra *)

(* --- instruction transfer ------------------------------------------------------ *)

(* The functor's machine: the symbolic state paired with the engine's
   memory model.  A flag is a 0/1 expression, possibly not yet built: every
   flag operation forces its operands, and [defer] alone leaves its formula
   for the first reader.  A built expression is its own forced [Lazy.t]
   ([Lazy.from_val] allocates nothing for it). *)
module Symbolic = struct
  type nonrec t = { model : mem_model; st : t }
  type v = E.t
  type f = E.t Lazy.t
  type nonrec outcome = outcome

  let const c = E.Const c

  let const_value = function
    | E.Const c -> Some c
    | E.Input _ | E.Bin _ | E.Un _ | E.Ite _ | E.Load _ -> None

  (* eta-expanded: a partial application would add a second indirect call
     to every operation the functor makes *)
  let add a b = E.bin E.Add a b
  let sub a b = E.bin E.Sub a b
  let mul a b = E.bin E.Mul a b
  let mulhi_u a b = E.bin E.Mulhi_u a b
  let mulhi_s a b = E.bin E.Mulhi_s a b
  let logand a b = E.bin E.And a b
  let logor a b = E.bin E.Or a b
  let logxor a b = E.bin E.Xor a b
  let lognot a = E.un E.Not a
  let neg a = E.un E.Neg a
  let shl a n = E.bin E.Shl a n
  let shr a n = E.bin E.Shr a n
  let sar a n = E.bin E.Sar a n
  let trunc w e = if w = W64 then e else E.un (E.Low (w, false)) e
  let sext w e = if w = W64 then e else E.un (E.Low (w, true)) e
  let select c a b = E.ite (Lazy.force c) a b

  let built e = Lazy.from_val e
  let eq a b = built (E.bin E.Eq a b)
  let bit0 e = built (E.bin E.And e E.one)
  let not01 e = E.bin E.Xor e E.one
  let fnot f = built (not01 (Lazy.force f))

  let parity e =
    let b = E.bin E.And e (E.Const 0xFFL) in
    let p = E.bin E.Xor b (E.bin E.Shr b (E.Const 4L)) in
    let p = E.bin E.Xor p (E.bin E.Shr p (E.Const 2L)) in
    let p = E.bin E.Xor p (E.bin E.Shr p (E.Const 1L)) in
    built (not01 (E.bin E.And p E.one))

  let of_flag f = Lazy.force f
  let flag_const b = built (if b then E.one else E.zero)
  let f_or a b = built (E.bin E.Or (Lazy.force a) (Lazy.force b))
  let f_xor a b = built (E.bin E.Xor (Lazy.force a) (Lazy.force b))
  let f_select c a b =
    built (E.ite (Lazy.force c) (Lazy.force a) (Lazy.force b))
  let defer th = lazy (Lazy.force (th ()))

  let get s r = get s.st r
  let set s r v = set s.st r v
  let get_flag s fl = flag_cell s.st fl
  let set_flag s fl v = set_flag_cell s.st fl v

  let load s a n = mread ~model:s.model s.st a n
  let store s a n v = mwrite ~model:s.model s.st a n v

  (* The quotient ignores rdx: compiled code sign- or zero-extends rax
     into rdx before dividing (Minic.Codegen), and then the 64-bit
     Sdiv/Udiv agrees with the 128-bit division.  A symbolic zero divisor
     evaluates to quotient 0 rather than faulting. *)
  let divide s ~signed ~hi ~lo d =
    check_div_fault ~model:s.model s.st ~signed ~rdx:hi ~rax:lo ~v:d;
    if signed then (E.bin E.Sdiv lo d, E.bin E.Srem lo d)
    else (E.bin E.Udiv lo d, E.bin E.Urem lo d)

  let fault m = raise (Sym_fault m)

  let rip s = s.st.rip
  let ok = O_ok
  let halt _ = O_halt

  let jump s = function
    | E.Const a -> s.st.rip <- a; O_ok
    | e -> O_indirect e

  let branch s c taken =
    match Lazy.force c with
    | E.Const 0L -> O_ok
    | E.Const _ -> s.st.rip <- taken; O_ok
    | cond -> O_branch (cond, taken, s.st.rip)
end

module Step = Sem.Make (Symbolic)

(* Execute the instruction at t.rip (already fetched as [i] with length
   [len]); returns the control-flow outcome. *)
let exec_instr ~model t i len =
  t.rip <- Int64.add t.rip (Int64.of_int len);
  t.steps <- t.steps + 1;
  Step.exec { Symbolic.model; st = t } i

(* Tables keyed by a full 64-bit address.  The hash folds the high half
   into the low one and mixes the bits inline, where the polymorphic
   [Hashtbl] calls out to the runtime's generic hash and compare.  A key
   is never narrowed with [Int64.to_int], which drops bit 63: two pages
   that differ only there are two keys. *)
module Rip_tbl = Hashtbl.Make (struct
    type t = int64
    let equal = Int64.equal
    let hash a =
      let x = Int64.mul (Int64.logxor a (Int64.shift_right_logical a 32))
          0x9E3779B97F4A7C15L in
      Int64.to_int (Int64.shift_right_logical x 32) lxor Int64.to_int x
  end)

(* Decoded instructions by address, [None] where no instruction decodes. *)
type decode_cache = (instr * int) option Rip_tbl.t

(* Decode at [rip] from [mem] through [cache]. *)
let fetch (cache : decode_cache) mem rip =
  match Rip_tbl.find_opt cache rip with
  | Some r -> r
  | None ->
    let window =
      Machine.Memory.read_bytes_avail mem rip X86.Encode.max_instr_len
    in
    let r = X86.Decode.decode window 0 in
    Rip_tbl.replace cache rip r;
    r

(* Fetch + decode at t.rip from the base image, with a shared cache. *)
let step ~model ~decode_cache t =
  let rip = t.rip in
  let fetched = fetch decode_cache t.mem.base rip in
  match fetched with
  | None -> O_fault (Printf.sprintf "invalid instruction at 0x%Lx" rip)
  | Some (i, len) ->
    (match exec_instr ~model t i len with
     | o -> o
     | exception Sym_fault m -> O_fault m)

(* Symbolic machine state and single-step transfer function: the x64-lite
   semantics of [Machine.Semantics.Make], instantiated over Expr values.

   Control flow stays concrete in RIP; branch and indirect-target decisions
   are surfaced as outcomes for the driving engine (SE forks, DSE follows the
   concrete witness).  Memory is a concrete base image plus a functional
   write log; symbolic addresses either produce first-class Load expressions
   (per-page theory-of-arrays flavour) or get concretized, depending on the
   engine's memory model (§VII-C3). *)

open X86.Isa
module E = Expr
module Sem = Machine.Semantics

module I64Map = Map.Make (Int64)

type smem = {
  base : Machine.Memory.t;
  cmap : (E.t * int * int) I64Map.t;    (* addr -> value, size, seq *)
  sym_writes : (E.t * E.t * int) list;  (* newest first; once non-empty, all
                                           writes go here to keep ordering *)
  seq : int;
}

type t = {
  mutable regs : E.t array;             (* 16 *)
  mutable f_cf : E.t;
  mutable f_zf : E.t;
  mutable f_sf : E.t;
  mutable f_of : E.t;
  mutable f_pf : E.t;
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

let create mem rip =
  { regs = Array.make 16 (E.Const 0L);
    f_cf = E.zero; f_zf = E.zero; f_sf = E.zero; f_of = E.zero; f_pf = E.zero;
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

let constrain t cond want = t.constraints <- { Solver.cond; want } :: t.constraints

(* --- memory ------------------------------------------------------------------ *)

let full_write_log m =
  m.sym_writes
  @ (I64Map.bindings m.cmap
     |> List.map (fun (a, (v, n, seq)) -> (seq, (E.Const a, v, n)))
     |> List.sort (fun (s1, _) (s2, _) -> compare s2 s1)
     |> List.map snd)

let to_expr_mem m : E.mem = { E.base = m.base; writes = full_write_log m }

(* byte expression at concrete address [a] from the concrete-address map or
   the base image; None when unmapped *)
let cmap_byte m a =
  let best = ref None in
  for k = 0 to 7 do
    let start = Int64.sub a (Int64.of_int k) in
    match I64Map.find_opt start m.cmap with
    | Some (v, n, seq) when k < n ->
      (match !best with
       | Some (_, bseq) when bseq >= seq -> ()
       | _ ->
         let byte =
           E.bin E.And
             (E.bin E.Shr v (E.Const (Int64.of_int (8 * k))))
             (E.Const 0xFFL)
         in
         best := Some (byte, seq))
    | Some _ | None -> ()
  done;
  match !best with
  | Some (e, _) -> Some e
  | None ->
    (match Machine.Memory.read_u8_opt m.base a with
     | Some v -> Some (E.Const (Int64.of_int v))
     | None -> None)

(* does any symbolic-addressed write possibly cover [a .. a+n)? *)
let sym_write_may_cover m =
  m.sym_writes <> []

let read_concrete t a n =
  let m = t.mem in
  if sym_write_may_cover m then
    (* sound fallback: keep the read symbolic over the full log *)
    E.Load (to_expr_mem m, E.Const a, n)
  else begin
    (* exact-match fast path *)
    match I64Map.find_opt a m.cmap with
    | Some (v, n', _) when n' = n -> v
    | Some _ | None ->
      let r = ref (E.Const 0L) in
      (try
         for i = n - 1 downto 0 do
           match cmap_byte m (Int64.add a (Int64.of_int i)) with
           | Some b -> r := E.bin E.Or (E.bin E.Shl !r (E.Const 8L)) b
           | None -> raise (Sym_fault (Printf.sprintf "read of unmapped 0x%Lx" a))
         done;
         !r
       with Sym_fault _ as e -> raise e)
  end

(* S2E-style store-back: when a register holding exactly the concretized
   expression exists, pin it to the constant; keeps state expressions small
   and mirrors how concretizing executors behave. *)
let store_back t addr_e a =
  for i = 0 to 15 do
    if t.regs.(i) == addr_e then t.regs.(i) <- E.Const a
  done

let mread ~model t addr_e n =
  match addr_e with
  | E.Const a -> read_concrete t a n
  | _ ->
    if model.toa then E.Load (to_expr_mem t.mem, addr_e, n)
    else
      (match model.concretize t addr_e with
       | Some a ->
         constrain t (E.bin E.Eq addr_e (E.Const a)) true;
         t.concretizations <- (addr_e, a) :: t.concretizations;
         store_back t addr_e a;
         read_concrete t a n
       | None -> raise (Sym_fault "unresolvable symbolic address"))

let mwrite ~model t addr_e n v =
  model.on_write addr_e n;
  let m = t.mem in
  match addr_e with
  | E.Const a when m.sym_writes = [] ->
    t.mem <- { m with cmap = I64Map.add a (v, n, m.seq) m.cmap; seq = m.seq + 1 }
  | E.Const _ ->
    t.mem <- { m with sym_writes = (addr_e, v, n) :: m.sym_writes; seq = m.seq + 1 }
  | _ ->
    if model.toa then
      t.mem <- { m with sym_writes = (addr_e, v, n) :: m.sym_writes; seq = m.seq + 1 }
    else
      (match model.concretize t addr_e with
       | Some a ->
         constrain t (E.bin E.Eq addr_e (E.Const a)) true;
         t.concretizations <- (addr_e, a) :: t.concretizations;
         store_back t addr_e a;
         t.mem <-
           { m with
             cmap = I64Map.add a (v, n, m.seq) m.cmap;
             sym_writes =
               (if m.sym_writes = [] then [] else (E.Const a, v, n) :: m.sym_writes);
             seq = m.seq + 1 }
       | None -> raise (Sym_fault "unresolvable symbolic address"))

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
   memory model.  Flags are 0/1 expressions. *)
module Symbolic = struct
  type nonrec t = { model : mem_model; st : t }
  type v = E.t
  type f = E.t
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
  let select c a b = E.ite c a b

  let eq a b = E.bin E.Eq a b
  let bit0 e = E.bin E.And e E.one
  let fnot e = E.bin E.Xor e E.one

  let parity e =
    let b = E.bin E.And e (E.Const 0xFFL) in
    let p = E.bin E.Xor b (E.bin E.Shr b (E.Const 4L)) in
    let p = E.bin E.Xor p (E.bin E.Shr p (E.Const 2L)) in
    let p = E.bin E.Xor p (E.bin E.Shr p (E.Const 1L)) in
    fnot (E.bin E.And p E.one)

  let of_flag f = f
  let flag_const b = if b then E.one else E.zero
  let f_or a b = E.bin E.Or a b
  let f_xor a b = E.bin E.Xor a b
  let f_select c a b = E.ite c a b

  let get s r = get s.st r
  let set s r v = set s.st r v

  let get_flag s = function
    | Sem.CF -> s.st.f_cf | Sem.ZF -> s.st.f_zf | Sem.SF -> s.st.f_sf
    | Sem.OF -> s.st.f_of | Sem.PF -> s.st.f_pf

  let set_flag s fl v =
    match fl with
    | Sem.CF -> s.st.f_cf <- v | Sem.ZF -> s.st.f_zf <- v
    | Sem.SF -> s.st.f_sf <- v | Sem.OF -> s.st.f_of <- v
    | Sem.PF -> s.st.f_pf <- v

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
    match c with
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

(* Fetch + decode at t.rip from the base image, with a shared cache. *)
let step ~model ~decode_cache t =
  let rip = t.rip in
  let fetched =
    match Hashtbl.find_opt decode_cache rip with
    | Some r -> r
    | None ->
      let window =
        Machine.Memory.read_bytes_avail t.mem.base rip X86.Encode.max_instr_len
      in
      let r = X86.Decode.decode window 0 in
      Hashtbl.replace decode_cache rip r;
      r
  in
  match fetched with
  | None -> O_fault (Printf.sprintf "invalid instruction at 0x%Lx" rip)
  | Some (i, len) ->
    (match exec_instr ~model t i len with
     | o -> o
     | exception Sym_fault m -> O_fault m)

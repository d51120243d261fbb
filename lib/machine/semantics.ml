(* x64-lite semantics, defined once.

   The first half holds the concrete int64 helpers: width arithmetic,
   parity, wide multiply and divide.  The flag formulas live only in [Make]
   (the fast engine's 64-bit ALU kernel in [Exec] is their full-width
   specialization).

   The second half is [Make], the per-instruction semantics over an
   abstract [MACHINE].  [Exec] instantiates it over [Cpu.t] (int64 values,
   bool flags) for the reference stepper and for every shape its fast
   engine does not specialize; [Symex.Sym_state] instantiates it
   over [Expr.t] values.  The attacker's model and the machine it attacks
   therefore share every formula.  test/test_symex.ml runs both instances
   on random single instructions, and on flag writers followed by flag
   readers, and requires them to agree. *)

open X86.Isa

let mask = function
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFFFFFFL
  | W64 -> -1L

let truncate w v = Int64.logand v (mask w)

(* Sign-extend a [w]-wide value to 64 bits. *)
let sign_extend w v =
  match w with
  | W64 -> v
  | _ ->
    let bits = width_bits w in
    let shifted = Int64.shift_left v (64 - bits) in
    Int64.shift_right shifted (64 - bits)

(* PF: even parity of the low byte.  The stepper updates PF on every ALU
   retire, so the popcount loop is replaced by a 256-entry table computed
   once at load time ('\001' = even parity). *)
let parity_table =
  String.init 256 (fun b ->
      let rec pop acc b = if b = 0 then acc else pop (acc + (b land 1)) (b lsr 1) in
      if pop 0 b land 1 = 0 then '\001' else '\000')

let parity v =
  String.unsafe_get parity_table (Int64.to_int v land 0xFF) = '\001'

type flags = { cf : bool; zf : bool; sf : bool; o_f : bool; pf : bool }

(* Unsigned and signed high halves of a 64x64 multiply. *)
let mulhi_u a b =
  let lo32 v = Int64.logand v 0xFFFFFFFFL in
  let hi32 v = Int64.shift_right_logical v 32 in
  let al = lo32 a and ah = hi32 a and bl = lo32 b and bh = hi32 b in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.add (hi32 ll) (lo32 lh)) (lo32 hl) in
  Int64.add (Int64.add hh (hi32 mid)) (Int64.add (hi32 lh) (hi32 hl))

let mulhi_s a b =
  (* signed high = unsigned high - (a<0 ? b : 0) - (b<0 ? a : 0) *)
  let h = mulhi_u a b in
  let h = if Int64.compare a 0L < 0 then Int64.sub h b else h in
  if Int64.compare b 0L < 0 then Int64.sub h a else h

(* Quotient does not fit in 64 bits.  Like Division_by_zero this is a typed
   condition the stepper converts into a machine fault (#DE), so it reaches
   the difftest oracle as a termination class instead of escaping as a bare
   Failure. *)
exception Div_overflow

(* 128-by-64 unsigned division of hi:lo by d.  Returns (quotient, remainder).
   Raises Division_by_zero when d = 0 and Div_overflow on quotient
   overflow. *)
let divmod_u128 hi lo d =
  if d = 0L then raise Division_by_zero;
  if Int64.unsigned_compare hi d >= 0 then raise Div_overflow;
  (* bit-by-bit long division *)
  let q = ref 0L and r = ref hi in
  for i = 63 downto 0 do
    let bit = Int64.logand (Int64.shift_right_logical lo i) 1L in
    let r' = Int64.logor (Int64.shift_left !r 1) bit in
    (* detect shift-out of r's top bit: r >= 2^63 before the shift *)
    let shifted_out = Int64.compare !r 0L < 0 in
    if shifted_out || Int64.unsigned_compare r' d >= 0 then begin
      r := Int64.sub r' d;
      q := Int64.logor !q (Int64.shift_left 1L i)
    end else
      r := r'
  done;
  (!q, !r)

let neg128 hi lo =
  let lo' = Int64.neg lo in
  let hi' = Int64.lognot hi in
  let hi' = if lo' = 0L then Int64.add hi' 1L else hi' in
  (hi', lo')

(* Signed 128-by-64 division with x86 idiv semantics. *)
let divmod_s128 hi lo d =
  if d = 0L then raise Division_by_zero;
  let num_neg = Int64.compare hi 0L < 0 in
  let d_neg = Int64.compare d 0L < 0 in
  let hi, lo = if num_neg then neg128 hi lo else (hi, lo) in
  let dm = if d_neg then Int64.neg d else d in
  let q, r = divmod_u128 hi lo dm in
  let q = if num_neg <> d_neg then Int64.neg q else q in
  let r = if num_neg then Int64.neg r else r in
  (* overflow check: signed quotient must fit 64 bits *)
  if num_neg <> d_neg then begin
    if Int64.compare q 0L > 0 then raise Div_overflow
  end else if Int64.compare q 0L < 0 then raise Div_overflow;
  (q, r)

(* --- one definition of every instruction ------------------------------ *)

type flag = CF | ZF | SF | OF | PF

(* What an instance provides: a value type and a flag type with the
   operations the formulas below need, register/flag/memory access, the
   division hook and the control-transfer outcomes. *)
module type MACHINE = sig
  type t          (* machine state *)
  type v          (* 64-bit value *)
  type f          (* one flag *)
  type outcome    (* result of one instruction *)

  val const : int64 -> v
  val const_value : v -> int64 option     (* Some c when v is known to be c *)
  val add : v -> v -> v
  val sub : v -> v -> v
  val mul : v -> v -> v
  val mulhi_u : v -> v -> v
  val mulhi_s : v -> v -> v
  val logand : v -> v -> v
  val logor : v -> v -> v
  val logxor : v -> v -> v
  val lognot : v -> v
  val neg : v -> v
  (* shift counts are taken mod 64 *)
  val shl : v -> v -> v
  val shr : v -> v -> v
  val sar : v -> v -> v
  val trunc : width -> v -> v             (* zero-extend the low w bits *)
  val sext : width -> v -> v              (* sign-extend the low w bits *)
  val select : f -> v -> v -> v           (* f ? a : b *)

  val eq : v -> v -> f
  val bit0 : v -> f                       (* lowest bit *)
  val parity : v -> f                     (* even parity of the low byte *)
  val of_flag : f -> v                    (* 0 or 1 *)
  val flag_const : bool -> f
  val fnot : f -> f
  val f_or : f -> f -> f
  val f_xor : f -> f -> f
  val f_select : f -> f -> f -> f
  (* A flag formula, handed over unevaluated.  The thunk reads only the
     values it captured, never the state, so it may run at any later time
     and give the same flag.  An eager instance runs it at once; a lazy one
     may run it only when the flag is read. *)
  val defer : (unit -> f) -> f

  val get : t -> reg -> v
  val set : t -> reg -> v -> unit
  val get_flag : t -> flag -> f
  val set_flag : t -> flag -> f -> unit
  val load : t -> v -> int -> v           (* address, size in bytes *)
  val store : t -> v -> int -> v -> unit
  (* rdx:rax divided by the divisor: (quotient, remainder), or the
     machine's fault *)
  val divide : t -> signed:bool -> hi:v -> lo:v -> v -> v * v
  val fault : string -> 'a

  val rip : t -> int64                    (* already past the instruction *)
  val ok : outcome                        (* fall through *)
  val halt : t -> outcome
  val jump : t -> v -> outcome
  val branch : t -> f -> int64 -> outcome (* condition, taken target *)
end

module Make (M : MACHINE) = struct
  let zero = M.const 0L
  let one = M.const 1L

  let sign_bit w v =
    M.bit0 (M.shr v (M.const (Int64.of_int (width_bits w - 1))))

  (* Carry/borrow-out and overflow of r = a +/- b (+/- carry), bitwise so
     that they hold for any way r was computed. *)
  let carry_out w a b r =
    sign_bit w (M.logor (M.logand a b) (M.logand (M.logor a b) (M.lognot r)))

  let borrow_out w a b r =
    sign_bit w
      (M.logor (M.logand (M.lognot a) b)
         (M.logand (M.logor (M.lognot a) b) r))

  let overflow_add w a b r =
    sign_bit w (M.logand (M.logxor a r) (M.logxor b r))

  let overflow_sub w a b r =
    sign_bit w (M.logand (M.logxor a b) (M.logxor a r))

  (* The flag formulas below go through [M.defer]: most flags an
     instruction writes are overwritten before anything reads them. *)
  let set_zsp st w r =
    M.set_flag st ZF (M.defer (fun () -> M.eq (M.trunc w r) zero));
    M.set_flag st SF (M.defer (fun () -> sign_bit w r));
    M.set_flag st PF (M.defer (fun () -> M.parity r))

  let flags_add st w a b r =
    M.set_flag st CF (M.defer (fun () -> carry_out w a b r));
    M.set_flag st OF (M.defer (fun () -> overflow_add w a b r));
    set_zsp st w r

  let flags_sub st w a b r =
    M.set_flag st CF (M.defer (fun () -> borrow_out w a b r));
    M.set_flag st OF (M.defer (fun () -> overflow_sub w a b r));
    set_zsp st w r

  let flags_logic st w r =
    M.set_flag st CF (M.flag_const false);
    M.set_flag st OF (M.flag_const false);
    set_zsp st w r

  let cc st c =
    let fl = M.get_flag st in
    match c with
    | O -> fl OF | NO -> M.fnot (fl OF)
    | B -> fl CF | AE -> M.fnot (fl CF)
    | E -> fl ZF | NE -> M.fnot (fl ZF)
    | BE -> M.f_or (fl CF) (fl ZF) | A -> M.fnot (M.f_or (fl CF) (fl ZF))
    | S -> fl SF | NS -> M.fnot (fl SF)
    | P -> fl PF | NP -> M.fnot (fl PF)
    | L -> M.f_xor (fl SF) (fl OF) | GE -> M.fnot (M.f_xor (fl SF) (fl OF))
    | LE -> M.f_or (fl ZF) (M.f_xor (fl SF) (fl OF))
    | G -> M.fnot (M.f_or (fl ZF) (M.f_xor (fl SF) (fl OF)))

  (* --- operands --- *)

  let ea st (m : mem) =
    let b = match m.base with Some r -> M.get st r | None -> zero in
    let i =
      match m.index with
      | Some (r, sc) -> M.mul (M.get st r) (M.const (Int64.of_int sc))
      | None -> zero
    in
    M.add (M.add b i) (M.const m.disp)

  let read st w = function
    | Reg r -> M.trunc w (M.get st r)
    | Imm v -> M.const (truncate w v)
    | Mem m -> M.load st (ea st m) (width_bytes w)

  (* Register writes follow x86: 32-bit writes zero-extend, 8/16-bit merge. *)
  let write_reg st w r v =
    match w with
    | W64 -> M.set st r v
    | W32 -> M.set st r (M.logand v (M.const 0xFFFFFFFFL))
    | W16 ->
      M.set st r
        (M.logor (M.logand (M.get st r) (M.const (-65536L)))
           (M.logand v (M.const 0xFFFFL)))
    | W8 ->
      M.set st r
        (M.logor (M.logand (M.get st r) (M.const (-256L)))
           (M.logand v (M.const 0xFFL)))

  let write st w op v =
    match op with
    | Reg r -> write_reg st w r v
    | Mem m -> M.store st (ea st m) (width_bytes w) v
    | Imm _ -> M.fault "write to immediate"

  let push st v =
    let sp = M.sub (M.get st RSP) (M.const 8L) in
    M.set st RSP sp;
    M.store st sp 8 v

  let pop st =
    let v = M.load st (M.get st RSP) 8 in
    (* re-read RSP: a symbolic memory model may have pinned it while
       resolving the load *)
    M.set st RSP (M.add (M.get st RSP) (M.const 8L));
    v

  (* --- instruction groups --- *)

  let alu st o w d s =
    let a = read st w d in
    let b = read st w s in
    match o with
    | Add ->
      let r = M.trunc w (M.add a b) in
      flags_add st w a b r; write st w d r
    | Adc ->
      let r = M.trunc w (M.add (M.add a b) (M.of_flag (M.get_flag st CF))) in
      flags_add st w a b r; write st w d r
    | Sub ->
      let r = M.trunc w (M.sub a b) in
      flags_sub st w a b r; write st w d r
    | Sbb ->
      let r = M.trunc w (M.sub (M.sub a b) (M.of_flag (M.get_flag st CF))) in
      flags_sub st w a b r; write st w d r
    | Cmp -> flags_sub st w a b (M.trunc w (M.sub a b))
    | And -> let r = M.logand a b in flags_logic st w r; write st w d r
    | Or -> let r = M.logor a b in flags_logic st w r; write st w d r
    | Xor -> let r = M.logxor a b in flags_logic st w r; write st w d r
    | Test -> flags_logic st w (M.logand a b)

  let unary st o w d =
    let a = read st w d in
    match o with
    | Neg ->
      let r = M.trunc w (M.neg a) in
      flags_sub st w zero a r; write st w d r
    | Not -> write st w d (M.trunc w (M.lognot a))   (* no flag update *)
    | Inc ->
      let r = M.trunc w (M.add a one) in
      M.set_flag st OF (M.defer (fun () -> overflow_add w a one r));
      set_zsp st w r; write st w d r
    | Dec ->
      let r = M.trunc w (M.sub a one) in
      M.set_flag st OF (M.defer (fun () -> overflow_sub w a one r));
      set_zsp st w r; write st w d r

  (* Result and flags of a shift or rotate of [a] by [n], where [n] is
     the masked count and taken to be non-zero. *)
  let shift_result st o w a n =
    let bits = width_bits w in
    let width = M.const (Int64.of_int bits) in
    match o with
    | Shl ->
      let r = M.trunc w (M.shl a n) in
      let cf = M.bit0 (M.shr a (M.sub width n)) in
      M.set_flag st CF cf;
      M.set_flag st OF (M.f_xor (sign_bit w r) cf);
      set_zsp st w r;
      r
    | Shr ->
      let r = M.shr (M.trunc w a) n in
      M.set_flag st CF (M.bit0 (M.shr (M.trunc w a) (M.sub n one)));
      M.set_flag st OF (sign_bit w a);
      set_zsp st w r;
      r
    | Sar ->
      let r = M.trunc w (M.sar (M.sext w a) n) in
      M.set_flag st CF (M.bit0 (M.sar (M.sext w a) (M.sub n one)));
      M.set_flag st OF (M.flag_const false);
      set_zsp st w r;
      r
    | Rol | Ror ->
      (* rotates take the count mod the width; at 32 and 64 bits the count
         mask already does *)
      let n =
        if bits < 32 then M.logand n (M.const (Int64.of_int (bits - 1))) else n
      in
      let back = M.sub width n in
      if o = Rol then begin
        let r = M.trunc w (M.logor (M.shl a n) (M.shr (M.trunc w a) back)) in
        M.set_flag st CF (M.bit0 r);
        r
      end else begin
        let r = M.trunc w (M.logor (M.shr (M.trunc w a) n) (M.shl a back)) in
        M.set_flag st CF (sign_bit w r);
        r
      end

  let all_flags = [ CF; ZF; SF; OF; PF ]

  let shift st o w d count =
    let a = read st w d in
    let mask = if w = W64 then 63 else 31 in
    let n =
      match count with
      | S_imm n -> M.const (Int64.of_int (n land mask))
      | S_cl -> M.logand (M.get st RCX) (M.const (Int64.of_int mask))
    in
    match M.const_value n with
    | Some 0L -> ()   (* a masked count of 0 changes neither flags nor dest *)
    | Some _ -> write st w d (shift_result st o w a n)
    | None ->
      (* unknown count: compute as if non-zero, then keep the old flags
         and destination where it is 0 *)
      let z = M.eq n zero in
      let old = List.map (fun fl -> (fl, M.get_flag st fl)) all_flags in
      let r = shift_result st o w a n in
      List.iter
        (fun (fl, f) -> M.set_flag st fl (M.f_select z f (M.get_flag st fl)))
        old;
      (match d with
       | Reg reg ->
         let prev = M.get st reg in
         write_reg st w reg r;
         M.set st reg (M.select z prev (M.get st reg))
       | Mem _ | Imm _ -> write st w d (M.select z a r))

  let muldiv st o s =
    let v = read st W64 s in
    let rax = M.get st RAX in
    match o with
    | Mul ->
      let hi = M.mulhi_u rax v in
      M.set st RAX (M.mul rax v);
      M.set st RDX hi;
      let c = M.fnot (M.eq hi zero) in
      M.set_flag st CF c; M.set_flag st OF c
    | Imul1 ->
      let lo = M.mul rax v in
      let hi = M.mulhi_s rax v in
      M.set st RAX lo;
      M.set st RDX hi;
      let c = M.defer (fun () -> M.fnot (M.eq hi (M.sar lo (M.const 63L)))) in
      M.set_flag st CF c; M.set_flag st OF c
    | Div | Idiv ->
      let q, r =
        M.divide st ~signed:(o = Idiv) ~hi:(M.get st RDX) ~lo:rax v
      in
      M.set st RDX r;
      M.set st RAX q

  (* Execute [i]; [M.rip st] is already past the instruction. *)
  let exec st i =
    match i with
    | Nop -> M.ok
    | Hlt -> M.halt st
    | Lahf ->
      let bit fl k = M.shl (M.of_flag (M.get_flag st fl)) (M.const k) in
      let ah =
        M.logor (bit SF 7L)
          (M.logor (bit ZF 6L)
             (M.logor (bit PF 2L)
                (M.logor (M.const 2L) (M.of_flag (M.get_flag st CF)))))
      in
      M.set st RAX
        (M.logor
           (M.logand (M.get st RAX) (M.const (Int64.lognot 0xFF00L)))
           (M.shl ah (M.const 8L)));
      M.ok
    | Sahf ->
      let ah = M.shr (M.get st RAX) (M.const 8L) in
      let bit k = M.bit0 (M.shr ah (M.const k)) in
      M.set_flag st SF (bit 7L);
      M.set_flag st ZF (bit 6L);
      M.set_flag st PF (bit 2L);
      M.set_flag st CF (M.bit0 ah);
      M.ok
    | Mov (w, d, s) -> write st w d (read st w s); M.ok
    | Movzx (dw, sw, r, s) -> write_reg st dw r (read st sw s); M.ok
    | Movsx (dw, sw, r, s) ->
      write_reg st dw r (M.trunc dw (M.sext sw (read st sw s)));
      M.ok
    | Lea (r, m) -> M.set st r (ea st m); M.ok
    | Push a -> push st (read st W64 a); M.ok
    | Pop d ->
      let v = pop st in
      write st W64 d v;
      M.ok
    | Alu (o, w, d, s) -> alu st o w d s; M.ok
    | Unary (o, w, d) -> unary st o w d; M.ok
    | Imul2 (w, r, s) ->
      let a = M.trunc w (M.get st r) in
      let b = read st w s in
      let full = M.mul (M.sext w a) (M.sext w b) in
      let r64 = M.trunc w full in
      (* below 64 bits [full] is the exact product; at 64 it is the product
         mod 2^64, and the high half decides overflow as for Imul1 *)
      let c =
        M.defer (fun () ->
            if w = W64 then
              M.fnot (M.eq (M.mulhi_s a b) (M.sar full (M.const 63L)))
            else M.fnot (M.eq (M.sext w r64) full))
      in
      M.set_flag st CF c; M.set_flag st OF c;
      set_zsp st w r64;
      write_reg st w r r64;
      M.ok
    | MulDiv (o, s) -> muldiv st o s; M.ok
    | Shift (o, w, d, c) -> shift st o w d c; M.ok
    | Cmov (c, r, s) ->
      let v = read st W64 s in
      M.set st r (M.select (cc st c) v (M.get st r));
      M.ok
    | Setcc (c, d) -> write st W8 d (M.of_flag (cc st c)); M.ok
    | Jmp (J_rel d) ->
      M.jump st (M.const (Int64.add (M.rip st) (Int64.of_int d)))
    | Jmp (J_op a) -> M.jump st (read st W64 a)
    | Jcc (c, d) -> M.branch st (cc st c) (Int64.add (M.rip st) (Int64.of_int d))
    | Call (J_rel d) ->
      let next = M.rip st in
      push st (M.const next);
      M.jump st (M.const (Int64.add next (Int64.of_int d)))
    | Call (J_op a) ->
      let target = read st W64 a in
      push st (M.const (M.rip st));
      M.jump st target
    | Ret -> M.jump st (pop st)
    | Leave ->
      M.set st RSP (M.get st RBP);
      let v = pop st in
      M.set st RBP v;
      M.ok
    | Xchg (w, a, b) ->
      let va = read st w a in
      let vb = read st w b in
      write st w a vb;
      write st w b va;
      M.ok
end

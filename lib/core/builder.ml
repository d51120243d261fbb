(* Chain crafting context (§IV-B2).

   Holds the pool, the chain under construction and the per-function ABI
   addresses, and provides the gadget-sequence templates used to lower
   roplets: virtual-stack operations against other_rsp (kept in the
   stack-switching array ss), branch groups with variable RSP addends,
   native-call and epilogue stack switches, and flag spill/restore around
   flag-polluting insertions. *)

open X86.Isa
module R = Analysis.Regset

exception Bail of string

(* One lowered program point (roplet / terminator group / trampoline): which
   chain slots it produced and what liveness said there.  Recorded as a side
   effect of crafting and handed to lib/verify through the rewriter's audit;
   the verifier replays the slots against these facts. *)
type point = {
  pt_addr : int64;             (* original instruction address (0 if none) *)
  pt_desc : string Lazy.t;     (* human label, e.g. the source instruction;
                                  forced only when the audit is built *)
  mutable pt_live : R.t;       (* registers that must survive the roplet *)
  pt_flags_live : bool;        (* must the status flags survive? *)
  pt_defs : R.t;               (* registers the roplet means to define *)
  mutable pt_borrowed : R.t;   (* spilled-and-restored (scratch borrows) *)
  pt_start : int;              (* first chain slot index of the roplet *)
  mutable pt_stop : int;       (* one past the last slot index *)
  mutable pt_hidden : (int * int) option;
      (* instruction hiding: slot-index range [lo, hi) of a real roplet
         smuggled inside this point's P3 predicate body *)
}

type t = {
  pool : Pool.t;
  chain : Chain.t;
  config : Config.t;
  rng : Util.Rng.t;
  fname : string;
  ss_addr : int64;
  spill_base : int64;          (* config.spill_slots 8-byte slots *)
  flags_spill : int64;         (* 16 bytes *)
  funcret_gadget : int64;      (* shared synthetic function-return gadget *)
  p1_array : int64;            (* base of the P1 opaque array (0 if no P1) *)
  p1_class_a : int array;      (* residue per class *)
  mutable branch_ordinal : int;
  mutable opaque_ordinal : int;   (* residue-class rotation for S_opaque *)
  mutable fresh_counter : int;
  mutable program_points : int;   (* N of Table III *)
  mutable points : point list;    (* reversed; audit trace *)
  mutable cur_point : point option;
  scratch : reg array;            (* [with_scratch]'s shuffle buffer *)
}

let all_regs_array = Array.of_list all_regs

let create ~pool ~config ~rng ~fname ~ss_addr ~spill_base ~flags_spill
    ~funcret_gadget ~p1_array ~p1_class_a =
  { pool; chain = Chain.create (); config; rng; fname; ss_addr; spill_base;
    flags_spill; funcret_gadget; p1_array; p1_class_a;
    branch_ordinal = 0; opaque_ordinal = 0; fresh_counter = 0;
    program_points = 0;
    points = []; cur_point = None; scratch = Array.copy all_regs_array }

(* --- audit trace ---------------------------------------------------------- *)

let end_point b =
  match b.cur_point with
  | Some p ->
    p.pt_stop <- Chain.length b.chain;
    b.points <- p :: b.points;
    b.cur_point <- None
  | None -> ()

let begin_point b ~addr ~desc ~live ~flags_live ~defs =
  end_point b;
  b.cur_point <-
    Some { pt_addr = addr; pt_desc = desc; pt_live = live;
           pt_flags_live = flags_live; pt_defs = defs;
           pt_borrowed = R.empty;
           pt_start = Chain.length b.chain;
           pt_stop = Chain.length b.chain;
           pt_hidden = None }

(* Extend the live set recorded for the current point (e.g. a P2 branch value
   that must survive into the trampoline). *)
let widen_point_live b extra =
  match b.cur_point with
  | Some p -> p.pt_live <- R.union p.pt_live extra
  | None -> ()

let note_borrowed b regs =
  match b.cur_point with
  | Some p -> p.pt_borrowed <- R.union p.pt_borrowed regs
  | None -> ()

(* Record the slot-index range of a hidden roplet within the current point
   (instruction hiding layer). *)
let note_hidden b lo hi =
  match b.cur_point with
  | Some p -> p.pt_hidden <- Some (lo, hi)
  | None -> ()

let points b =
  end_point b;
  List.rev b.points

(* Labels are built by hand rather than through [Printf]: chain crafting
   makes one per block, branch and trampoline, and the format interpreter
   was a visible share of its allocation.  The strings are unchanged:
   [fresh] gives "%s$%s%d" of fname, prefix and a counter, and
   [block_label] gives "bb_%Lx". *)
let fresh b prefix =
  let n = b.fresh_counter in
  b.fresh_counter <- n + 1;
  String.concat "" [ b.fname; "$"; prefix; string_of_int n ]

let block_label addr =
  let rec digits n v =
    if Int64.equal v 0L then n
    else digits (n + 1) (Int64.shift_right_logical v 4)
  in
  let n = max 1 (digits 0 addr) in
  let s = Bytes.create (3 + n) in
  Bytes.blit_string "bb_" 0 s 0 3;
  for i = 0 to n - 1 do
    let d = Int64.to_int (Int64.shift_right_logical addr (4 * i)) land 15 in
    Bytes.set s (2 + n - i) "0123456789abcdef".[d]
  done;
  Bytes.unsafe_to_string s

(* --- scratch allocation -------------------------------------------------- *)

(* Registers the chain machinery may never allocate: the chain's own program
   counter and the frame register we keep live for the original code. *)
let reserved = R.of_list [ RSP; RBP ]

(* Registers [a.(i)] .. [a.(n-1)], as a list. *)
let rec first_regs a i n = if i = n then [] else a.(i) :: first_regs a (i + 1) n

(* Allocate [n] scratch registers dead at this point ([live] from liveness,
   [avoid] = operand registers of the roplet being lowered).  When dead
   registers run short, live ones are borrowed via the spill slots
   (capacity [config.spill_slots]); beyond that the rewrite fails, which the
   coverage experiment reports like the paper's 40 register-pressure
   failures. *)
let with_scratch ?(allow_spill = true) b ~live ~avoid n (f : reg list -> unit) =
  let forbidden = R.union (R.union live avoid) reserved in
  (* the dead registers, in [all_regs] order, then Fisher-Yates shuffled in
     place: the draws of [Util.Rng.shuffle] without its two list copies *)
  let a = b.scratch in
  let nfree = ref 0 in
  for k = 0 to Array.length all_regs_array - 1 do
    let r = all_regs_array.(k) in
    if not (R.mem_reg forbidden r) then begin
      a.(!nfree) <- r;
      incr nfree
    end
  done;
  let nfree = !nfree in
  for i = nfree - 1 downto 1 do
    let j = Util.Rng.int b.rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  if nfree >= n then f (first_regs a 0 n)
  else if not allow_spill then
    raise (Bail (Printf.sprintf
                   "register pressure at a spill-unsafe point: need %d, have %d"
                   n nfree))
  else begin
    let free = first_regs a 0 nfree in
    let missing = n - nfree in
    if missing > b.config.Config.spill_slots then
      raise (Bail (Printf.sprintf "register pressure: need %d scratch, have %d, %d spill slots"
                     n nfree b.config.Config.spill_slots));
    (* borrow live registers (not operands, not reserved) *)
    let borrowable =
      List.filter
        (fun r -> R.mem_reg live r && not (R.mem_reg (R.union avoid reserved) r)
                  && r <> RAX)
        all_regs
    in
    if List.length borrowable < missing then
      raise (Bail "register pressure: nothing left to spill");
    let borrowed = List.filteri (fun i _ -> i < missing) borrowable in
    note_borrowed b (R.of_list borrowed);
    let slot i = Int64.add b.spill_base (Int64.of_int (8 * i)) in
    List.iteri
      (fun i r ->
         Chain.gadget b.chain
           (Pool.request b.pool [ Mov (W64, Mem (mem_abs (slot i)), Reg r) ]))
      borrowed;
    f (free @ borrowed);
    List.iteri
      (fun i r ->
         Chain.gadget b.chain
           (Pool.request b.pool [ Mov (W64, Reg r, Mem (mem_abs (slot i))) ]))
      borrowed
  end

(* Internal-invariant failure: a lowering template received scratch registers
   of a shape other than the one its fixed gadget sequence needs.  Reachable
   only through a bug in [with_scratch] or the template itself, so surface
   the role and the offending operand shape instead of an anonymous assert. *)
let template_error role regs =
  invalid_arg
    (Printf.sprintf
       "Builder.%s: gadget template got scratch shape [%s]"
       role (String.concat "; " (List.map X86.Pp.reg_name regs)))

(* Emit one gadget; [clobber] lists registers usable in diversification
   prefixes (dynamically dead at this point). *)
let g b ?(clobber = []) instrs =
  Chain.gadget b.chain (Pool.request ~clobberable:clobber b.pool instrs)

let imm b v = Chain.imm b.chain v

(* Load a 64-bit constant into [r] from the chain, optionally disguising it
   as a difference of gadget addresses (gadget confusion, §V-D). *)
let load_imm b ~scratch r v =
  let confused =
    b.config.Config.gadget_confusion
    && Util.Rng.int b.rng 100 < b.config.Config.imm_confusion_prob
    && scratch <> []
  in
  if confused then begin
    let r2 = List.hd scratch in
    (* pick a cover address: an existing gadget looks most plausible *)
    let cover = b.funcret_gadget in
    g b [ Pop (Reg r) ];
    imm b (Int64.add v cover);
    g b [ Pop (Reg r2) ];
    imm b cover;
    g b [ Alu (Sub, W64, Reg r, Reg r2) ]
  end else begin
    g b [ Pop (Reg r) ];
    imm b v
  end

(* Optionally insert an unaligned RSP update (eta mod 8 <> 0) after a
   program point; the junk gap makes every 8-byte stride look like a
   plausible chain item to a scanner. *)
let maybe_skew b =
  if b.config.Config.gadget_confusion
     && Util.Rng.int b.rng 100 < b.config.Config.skew_prob
  then begin
    let eta = 8 + Util.Rng.range b.rng 1 7 in    (* 9..15, never 8-aligned *)
    g b [ Alu (Add, W64, Reg RSP, Imm (Int64.of_int (eta - 8))) ];
    Chain.skew b.chain (eta - 8)
  end

(* --- flag spill/restore (§IV-B2) ----------------------------------------- *)

let flag_spill b =
  let fs = b.flags_spill in
  let fs8 = Int64.add fs 8L in
  g b [ Mov (W64, Mem (mem_abs fs8), Reg RAX) ];
  g b [ Lahf; Setcc (O, Reg RAX) ];
  g b [ Mov (W64, Mem (mem_abs fs), Reg RAX) ];
  g b [ Mov (W64, Reg RAX, Mem (mem_abs fs8)) ]

let flag_restore b =
  let fs = b.flags_spill in
  let fs8 = Int64.add fs 8L in
  g b [ Mov (W64, Mem (mem_abs fs8), Reg RAX) ];
  g b [ Mov (W64, Reg RAX, Mem (mem_abs fs)) ];
  g b [ Alu (Add, W8, Reg RAX, Imm 0x7FL); Sahf ];
  g b [ Mov (W64, Reg RAX, Mem (mem_abs fs8)) ]

(* Run [f] with the status register preserved if [flags_live]. *)
let with_flags_preserved b ~flags_live f =
  if flags_live then begin
    (* RAX is saved/restored around the spill pair *)
    note_borrowed b (R.of_reg RAX);
    flag_spill b;
    f ();
    flag_restore b
  end else f ()

(* --- virtual stack primitives -------------------------------------------- *)

(* s1 := &other_rsp cell, i.e. ss + ss[0]. *)
let load_cell_ptr b ~scratch s1 =
  load_imm b ~scratch s1 b.ss_addr;
  g b [ Alu (Add, W64, Reg s1, Mem (mem_b s1 0)) ]

(* push <value in vr> *)
let vpush_reg b ~live vr =
  with_scratch b ~live ~avoid:(R.of_reg vr) 2 (fun regs ->
      match regs with
      | [ s1; s2 ] ->
        load_cell_ptr b ~scratch:[ s2 ] s1;
        g b [ Mov (W64, Reg s2, Mem (mem_b s1 0));
              Alu (Sub, W64, Reg s2, Imm 8L) ];
        g b [ Mov (W64, Mem (mem_b s1 0), Reg s2) ];
        g b [ Mov (W64, Mem (mem_b s2 0), Reg vr) ]
      | regs -> template_error "vpush_reg (virtual push, 2 scratch)" regs)

let vpush_imm b ~live v =
  with_scratch b ~live ~avoid:R.empty 3 (fun regs ->
      match regs with
      | [ s1; s2; s3 ] ->
        load_cell_ptr b ~scratch:[ s2 ] s1;
        g b [ Mov (W64, Reg s2, Mem (mem_b s1 0));
              Alu (Sub, W64, Reg s2, Imm 8L) ];
        g b [ Mov (W64, Mem (mem_b s1 0), Reg s2) ];
        load_imm b ~scratch:[] s3 v;
        g b [ Mov (W64, Mem (mem_b s2 0), Reg s3) ]
      | regs -> template_error "vpush_imm (virtual push imm, 3 scratch)" regs)

(* pop <into dst register> *)
let vpop b ~live dst =
  with_scratch b ~live ~avoid:(R.of_reg dst) 2 (fun regs ->
      match regs with
      | [ s1; s2 ] ->
        load_cell_ptr b ~scratch:[ s2 ] s1;
        g b [ Mov (W64, Reg s2, Mem (mem_b s1 0)) ];
        g b [ Mov (W64, Reg dst, Mem (mem_b s2 0)) ];
        g b [ Alu (Add, W64, Mem (mem_b s1 0), Imm 8L) ]
      | regs -> template_error "vpop (virtual pop, 2 scratch)" regs)

(* rsp += delta (frame allocation / release) *)
let rsp_adjust b ~live delta =
  with_scratch b ~live ~avoid:R.empty 2 (fun regs ->
      match regs with
      | [ s1; s2 ] ->
        load_cell_ptr b ~scratch:[ s2 ] s1;
        load_imm b ~scratch:[] s2 delta;
        g b [ Alu (Add, W64, Mem (mem_b s1 0), Reg s2) ]
      | regs -> template_error "rsp_adjust (virtual rsp += imm, 2 scratch)" regs)

(* dst := rsp   (e.g. mov rbp, rsp) *)
let rsp_to_reg b ~live dst =
  with_scratch b ~live ~avoid:(R.of_reg dst) 1 (fun regs ->
      match regs with
      | [ s1 ] ->
        load_cell_ptr b ~scratch:[] s1;
        g b [ Mov (W64, Reg dst, Mem (mem_b s1 0)) ]
      | regs -> template_error "rsp_to_reg (reg := virtual rsp, 1 scratch)" regs)

(* rsp := src   (e.g. mov rsp, rbp; the stack-release half of leave) *)
let reg_to_rsp b ~live src =
  with_scratch b ~live ~avoid:(R.of_reg src) 1 (fun regs ->
      match regs with
      | [ s1 ] ->
        load_cell_ptr b ~scratch:[] s1;
        g b [ Mov (W64, Mem (mem_b s1 0), Reg src) ]
      | regs -> template_error "reg_to_rsp (virtual rsp := reg, 1 scratch)" regs)

(* dst := [rsp + disp] with width/extension (Figure 3) *)
let rsp_read b ~live ~move dst disp =
  with_scratch b ~live ~avoid:(R.of_reg dst) 1 (fun regs ->
      match regs with
      | [ s1 ] ->
        load_cell_ptr b ~scratch:[] s1;
        g b [ Mov (W64, Reg s1, Mem (mem_b s1 0)) ];
        g b [ move dst (Mem (mem_b s1 disp)) ]
      | regs -> template_error "rsp_read (reg := [virtual rsp+disp], 1 scratch)" regs)

(* [rsp + disp] := src (register source) *)
let rsp_write b ~live w disp src =
  with_scratch b ~live ~avoid:(R.of_reg src) 1 (fun regs ->
      match regs with
      | [ s1 ] ->
        load_cell_ptr b ~scratch:[] s1;
        g b [ Mov (W64, Reg s1, Mem (mem_b s1 0)) ];
        g b [ Mov (w, Mem (mem_b s1 disp), Reg src) ]
      | regs -> template_error "rsp_write ([virtual rsp+disp] := reg, 1 scratch)" regs)

(* dst := rsp + disp (lea dst, [rsp+disp]) *)
let rsp_lea b ~live dst disp =
  rsp_to_reg b ~live dst;
  if disp <> 0 then
    g b [ Lea (dst, mem_b dst disp) ]

(* --- control transfers ----------------------------------------------------- *)

(* Unprotected branch group (§IV-B2).  [cc] None = unconditional.  The popped
   operand L is the offset of the destination block, a symbol materialized
   once the chain layout is final. *)
let plain_branch b ~live ~cc ~target =
  let anchor = fresh b "a" in
  with_scratch b ~live ~avoid:R.empty 2 (fun regs ->
      match regs, cc with
      | [ s1; _s2 ], None ->
        g b [ Pop (Reg s1) ];
        Chain.disp b.chain ~target ~anchor ~bias:0L;
        g b [ Alu (Add, W64, Reg RSP, Reg s1) ];
        Chain.anchor b.chain anchor
      | [ s1; s2 ], Some cc ->
        g b [ Pop (Reg s1) ];
        Chain.disp b.chain ~target ~anchor ~bias:0L;
        g b [ Mov (W64, Reg s2, Imm 0L); Cmov (cc_negate cc, s1, Reg s2) ];
        g b [ Alu (Add, W64, Reg RSP, Reg s1) ];
        Chain.anchor b.chain anchor
      | regs, _ -> template_error "plain_branch (branch group, 2 scratch)" regs)

(* The f(x) recovery sequence, shared by P1 branches and every opaque
   recovery: sv := P1[f(x)*s*8 + cls*8] mod m, where f(x) opaquely combines
   up to 4 input-derived (live) registers; clobbers [si] and [st].  Sharing
   it byte for byte means a scanner cannot tell a recovered constant from an
   encoded branch. *)
let opaque_residue_seq b ~live ~cls (si, st, sv) =
  let p1 =
    match b.config.Config.p1 with
    | Some p -> p
    | None -> invalid_arg "Builder.opaque_residue_seq: no P1 parameters"
  in
  let sources =
    List.filter
      (fun r -> R.mem_reg live r && not (R.mem_reg reserved r))
      all_regs
  in
  let sources = Util.Rng.shuffle b.rng sources in
  let sources = List.filteri (fun i _ -> i < 4) sources in
  (match sources with
   | [] -> g b [ Mov (W64, Reg si, Imm 0L) ]
   | first :: others ->
     g b [ Mov (W64, Reg si, Reg first) ];
     List.iter
       (fun r ->
          match Util.Rng.int b.rng 3 with
          | 0 -> g b [ Alu (Add, W64, Reg si, Reg r) ]
          | 1 -> g b [ Alu (Xor, W64, Reg si, Reg r) ]
          | _ -> g b [ Alu (Add, W64, Reg si, Reg r);
                       Shift (Rol, W64, Reg si, S_imm 3) ])
       others);
  g b [ Alu (And, W64, Reg si, Imm (Int64.of_int (p1.Config.p - 1))) ];
  load_imm b ~scratch:[] st (Int64.of_int (8 * p1.Config.s));
  g b [ Imul2 (W64, si, Reg st) ];
  load_imm b ~scratch:[] st (Int64.add b.p1_array (Int64.of_int (8 * cls)));
  g b [ Mov (W64, Reg sv,
             Mem { base = Some st; index = Some (si, 1); disp = 0L }) ];
  if p1.Config.m land (p1.Config.m - 1) = 0 then
    g b [ Alu (And, W64, Reg sv, Imm (Int64.of_int (p1.Config.m - 1))) ]
  else
    raise (Bail "non-power-of-two P1 modulus requires the div path \
                 (unimplemented fast path)")

(* P1 branch group: the branch offset is split into an array-encoded part [a]
   (recovered through the periodic opaque array, with input-derived aliasing
   via f(x)) and a branch-specific part delta-a popped from the chain
   (§V-A). *)
let p1_branch b ~live ~cc ~target =
  let p1 =
    match b.config.Config.p1 with
    | Some p -> p
    | None ->
      invalid_arg
        "Builder.p1_branch: P1 branch requested but the configuration has \
         no P1 parameters (use plain_branch when config.p1 = None)"
  in
  let ordinal = b.branch_ordinal in
  b.branch_ordinal <- ordinal + 1;
  let cls = ordinal mod p1.Config.n in
  let a = b.p1_class_a.(cls) in
  let anchor = fresh b "a" in
  let needed = match cc with Some _ -> 5 | None -> 4 in
  with_scratch b ~live ~avoid:R.empty needed (fun regs ->
      let sd, rest =
        match cc, regs with
        | Some _, sd :: rest -> (Some sd, rest)
        | None, rest -> (None, rest)
        | Some _, [] ->
          template_error "p1_branch (conditional needs a decision scratch)"
            regs
      in
      (match cc, sd with
       | Some cc, Some sd ->
         (* capture the branch decision before polluting the flags *)
         g b [ Mov (W64, Reg sd, Imm 0L) ];
         g b [ Setcc (cc, Reg sd) ]
       | None, None -> ()
       | Some _, None | None, Some _ ->
         invalid_arg
           "Builder.p1_branch: decision scratch present iff the branch is \
            conditional");
      match rest with
      | [ si; st; sv; so ] ->
        opaque_residue_seq b ~live ~cls (si, st, sv);
        (* delta = (delta - a) + a *)
        g b [ Pop (Reg so) ];
        Chain.disp b.chain ~target ~anchor ~bias:(Int64.of_int a);
        g b [ Alu (Add, W64, Reg so, Reg sv) ];
        (match sd with
         | Some sd -> g b [ Imul2 (W64, so, Reg sd) ]
         | None -> ());
        g b [ Alu (Add, W64, Reg RSP, Reg so) ];
        Chain.anchor b.chain anchor
      | regs -> template_error "p1_branch (P1 branch group, 4 scratch)" regs)

let branch b ~live ~cc ~target =
  match b.config.Config.p1 with
  | Some _ -> p1_branch b ~live ~cc ~target
  | None -> plain_branch b ~live ~cc ~target

(* --- opaque-constant slots (ROPfuscator layer) ----------------------------- *)

(* The layer piggybacks on the P1 array, so it is active only when P1 is. *)
let opaque_active b =
  b.config.Config.opaque_constants
  && b.config.Config.p1 <> None
  && Int64.compare b.p1_array 0L <> 0

(* Per-slot coin flip at [opaque_prob] percent. *)
let opaque_roll b =
  opaque_active b && Util.Rng.int b.rng 100 < b.config.Config.opaque_prob

(* Free (dead, unreserved) registers at this point, for templates that must
   not spill because their trailing slots have adjacency requirements. *)
let free_scratch _b ~live ~avoid =
  let forbidden = R.union (R.union live avoid) reserved in
  List.length (List.filter (fun r -> not (R.mem_reg forbidden r)) all_regs)

(* Choose this slot's encoding and rotate the class.  The first slot under
   [debug_opaque_residue] records a residue that disagrees with the array's
   ground truth: the stored bytes come out mult bytes off and the runtime
   recovery genuinely miscompiles — the fault ropcheck's byte check must
   catch against [f_p1]. *)
let opaque_pick b =
  let p1 =
    match b.config.Config.p1 with
    | Some p -> p
    | None -> invalid_arg "Builder.opaque_pick: no P1 parameters"
  in
  let ordinal = b.opaque_ordinal in
  b.opaque_ordinal <- ordinal + 1;
  let cls = ordinal mod p1.Config.n in
  let a = b.p1_class_a.(cls) in
  let mult = Int64.of_int (0x10000 + Util.Rng.int b.rng 0x40000) in
  let residue =
    if b.config.Config.debug_opaque_residue && ordinal = 0 then
      Int64.of_int ((a + 1) mod p1.Config.m)
    else Int64.of_int a
  in
  (cls, residue, mult)

(* Tail of every recovery, entered with sv = a: scale to (a+1)*mult, pop the
   residual slot into [r], add the two back together. *)
let opaque_finish b ~cls ~residue ~mult r (st, sv) value =
  g b [ Pop (Reg st) ];
  imm b mult;
  g b [ Imul2 (W64, sv, Reg st) ];
  g b [ Alu (Add, W64, Reg sv, Reg st) ];
  g b [ Pop (Reg r) ];
  Chain.opaque b.chain ~value ~cls ~residue ~mult;
  g b [ Alu (Add, W64, Reg r, Reg sv) ]

(* Load [value] into [r] without the value ever appearing in the chain
   bytes: the slot stores value - mult*(a+1), and the preceding gadgets
   recover mult*(a+1) from the opaque array.  Clobbers the status flags. *)
let opaque_load b ~live r value =
  let cls, residue, mult = opaque_pick b in
  with_scratch b ~live ~avoid:(R.of_reg r) 3 (fun regs ->
      match regs with
      | [ si; st; sv ] ->
        opaque_residue_seq b ~live ~cls (si, st, sv);
        opaque_finish b ~cls ~residue ~mult r (st, sv) value
      | regs -> template_error "opaque_load (opaque recovery, 3 scratch)" regs)

(* Emit one gadget with its *address* opaque-encoded: the slot that would
   have held the gadget address holds a jmp-reg trampoline instead, and the
   register it jumps through is recovered opaquely.  The target's own ret
   continues the chain right after the dispatch slot, so callers emit the
   gadget's operand slots immediately after this returns — which is also
   why this template must never spill (restore gadgets would land between
   the dispatch and its operands); under register pressure it falls back to
   a literal slot. *)
let g_opaque b ?(clobber = []) ~live instrs =
  if free_scratch b ~live ~avoid:R.empty < 4 then g b ~clobber instrs
  else begin
    let target = Pool.request ~clobberable:clobber b.pool instrs in
    let cls, residue, mult = opaque_pick b in
    with_scratch ~allow_spill:false b ~live ~avoid:R.empty 4 (fun regs ->
        match regs with
        | [ s; si; st; sv ] ->
          opaque_residue_seq b ~live ~cls (si, st, sv);
          opaque_finish b ~cls ~residue ~mult s (st, sv) target;
          let jop = Pool.request_jop b.pool [ Jmp (J_op (Reg s)) ] in
          Chain.opaque_dispatch b.chain ~jop ~target
        | regs -> template_error "g_opaque (opaque dispatch, 4 scratch)" regs)
  end

(* Jump-table dispatch: [reg] already holds the RSP displacement loaded from
   the rewritten table (Appendix A); returns the anchor name the table
   entries must be made relative to. *)
let table_jump b ~live reg =
  ignore live;
  let anchor = fresh b "jt" in
  g b [ Alu (Add, W64, Reg RSP, Reg reg) ];
  Chain.anchor b.chain anchor;
  anchor

(* --- stack switching: calls and returns (§IV-B2, Figure 4) ---------------- *)

type call_target =
  | Ct_imm of int64            (* direct call: function entry address *)
  | Ct_reg of reg              (* indirect call through a register *)

(* Spilling across the call would not be reentrant (the slots are
   per-function, and the callee may recurse into us), so the sequence is
   shaped to need only the two caller-saved non-argument registers that are
   always dead at a call site. *)
let native_call b ~live target =
  let avoid = match target with Ct_reg r -> R.of_reg r | Ct_imm _ -> R.empty in
  with_scratch ~allow_spill:false b ~live ~avoid 2 (fun regs ->
      match regs with
      | [ s1; s2 ] ->
        load_imm b ~scratch:[ s2 ] s1 b.ss_addr;
        g b [ Alu (Add, W64, Reg s1, Mem (mem_b s1 0)) ];          (* step A *)
        g b [ Alu (Sub, W64, Mem (mem_b s1 0), Imm 8L) ];
        g b [ Mov (W64, Reg s2, Mem (mem_b s1 0)) ];
        (* step B: plant the function-return gadget as return address *)
        g b [ Mov (W64, Mem (mem_b s2 0), Imm b.funcret_gadget) ];
        (match target with
         | Ct_imm addr ->
           g b [ Pop (Reg s2) ];
           imm b addr
         | Ct_reg r -> g b [ Mov (W64, Reg s2, Reg r) ]);
        (* step C: JOP gadget switches stacks and enters the callee *)
        Chain.gadget b.chain
          (Pool.request_jop b.pool
             [ Xchg (W64, Reg RSP, Mem (mem_b s1 0)); Jmp (J_op (Reg s2)) ])
      | regs -> template_error "native_call (stack-switch call, 2 scratch)" regs)

(* Function epilogue: release the ss frame and return natively (Appendix A).
   The final gadget's own ret pops the caller's return address from the
   native stack. *)
let epilogue b ~live =
  (* seeded fault injection (tests only): skew the virtual stack right
     before the unswitch.  Every slot still typechecks individually, so
     ropcheck's linear walk passes; only a flow-sensitive stack-discipline
     analysis can see the unswitch happen at delta = +8. *)
  if b.config.Config.debug_unbalanced_epilogue then rsp_adjust b ~live 8L;
  with_scratch b ~live ~avoid:R.empty 1 (fun regs ->
      match regs with
      | [ s1 ] ->
        load_imm b ~scratch:[] s1 b.ss_addr;
        g b [ Alu (Sub, W64, Mem (mem_b s1 0), Imm 8L) ];
        g b [ Alu (Add, W64, Reg s1, Mem (mem_b s1 0));
              Alu (Add, W64, Reg s1, Imm 8L) ];
        g b [ Mov (W64, Reg RSP, Mem (mem_b s1 0)) ]
      | regs -> template_error "epilogue (stack unswitch, 1 scratch)" regs)

(* Tail-jump variant: unpivot, then jump to the tail target (Appendix A). *)
let tail_jump b ~live target =
  with_scratch b ~live ~avoid:R.empty 2 (fun regs ->
      match regs with
      | [ s1; s2 ] ->
        load_imm b ~scratch:[ s2 ] s1 b.ss_addr;
        g b [ Alu (Sub, W64, Mem (mem_b s1 0), Imm 8L) ];
        g b [ Alu (Add, W64, Reg s1, Mem (mem_b s1 0));
              Alu (Add, W64, Reg s1, Imm 8L) ];
        g b [ Pop (Reg s2) ];
        imm b target;
        Chain.gadget b.chain
          (Pool.request_jop b.pool
             [ Mov (W64, Reg RSP, Mem (mem_b s1 0)); Jmp (J_op (Reg s2)) ])
      | regs -> template_error "tail_jump (stack unswitch + jop, 2 scratch)" regs)

let hlt b = g b [ Hlt ]

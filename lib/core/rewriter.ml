(* The binary rewriter (Figure 2): turns compiled functions into
   self-contained ROP chains.

   Per function: CFG reconstruction -> liveness -> per-instruction roplet
   translation and chain crafting -> materialization into the .rop section ->
   pivot stub installed over the original body -> jump tables patched to hold
   chain displacements (Appendix A).  A session shares the gadget pool, the
   stack-switching array and the synthetic function-return gadget across all
   rewritten functions of an image. *)

open X86.Isa
module R = Analysis.Regset
module Cfg = Analysis.Cfg

type failure =
  | F_cfg                       (* CFG reconstruction failed *)
  | F_register_pressure of string
  | F_unsupported of string     (* e.g. push rsp, pop mem *)
  | F_too_small                 (* body cannot hold the pivoting stub *)

let failure_to_string = function
  | F_cfg -> "cfg-reconstruction"
  | F_register_pressure m -> "register-pressure: " ^ m
  | F_unsupported m -> "unsupported-instruction: " ^ m
  | F_too_small -> "too-small"

type func_stats = {
  fs_points : int;              (* N: program points (instructions) *)
  fs_chain_bytes : int;
  fs_chain_addr : int64;
  fs_blocks : int;
  fs_block_offsets : int list;  (* chain offsets of the translated blocks *)
}

type func_result = (func_stats, failure) result

type result = {
  image : Image.t;
  funcs : (string * func_result) list;
  total_gadget_uses : int;      (* A of Table III *)
  unique_gadgets : int;         (* B of Table III *)
  audit : Audit.t Lazy.t;
      (* claims for the static verifier, built when forced.  An unforced
         audit holds closures: a [result] must not cross [Marshal]. *)
}

exception Unsupported of string

(* --- pivot stub (Appendix A) ---------------------------------------------- *)

let pivot_stub ~ss_addr ~chain_addr =
  X86.Encode.encode_list
    [ Push (Imm ss_addr);
      Pop (Reg RAX);
      Alu (Add, W64, Mem (mem_b RAX 0), Imm 8L);
      Alu (Add, W64, Reg RAX, Mem (mem_b RAX 0));      (* step (a) *)
      Mov (W64, Mem (mem_b RAX 0), Reg RSP);           (* step (b) *)
      Push (Imm chain_addr);
      Pop (Reg RSP);                                   (* step (c) *)
      Ret ]

(* Sizing must use representative addresses: the encoder picks the smallest
   immediate form, so a stub built with address 0 comes out imm8-sized while
   the real ss/chain addresses need imm32.  (Found by differential fuzzing:
   functions between the two sizes crashed the rewrite instead of cleanly
   declining with F_too_small.) *)
let pivot_stub_size =
  Bytes.length (pivot_stub ~ss_addr:0x7FFF_FFFFL ~chain_addr:0x7FFF_FFFFL)

(* --- per-instruction translation ------------------------------------------ *)

let mentions_rsp_mem (m : mem) =
  m.base = Some RSP || (match m.index with Some (RSP, _) -> true | _ -> false)

let mentions_rsp_op = function
  | Reg RSP -> true
  | Reg _ | Imm _ -> false
  | Mem m -> mentions_rsp_mem m

(* Translate one non-terminator instruction at [live] (live-out u uses u
   defs).  [flags_live] gates diversification: dead-prefix variants may
   clobber the status flags, so directly-lowered gadgets only declare
   clobberable registers when the flags neither survive the roplet nor feed
   the instruction itself. *)
let translate_instr b ~live ~flags_live (bi : Cfg.binstr) =
  let i = bi.Cfg.instr in
  let direct () =
    let clobber =
      if flags_live then []
      else begin
        let keep =
          R.union (R.union live (R.union bi.Cfg.uses bi.Cfg.defs))
            Builder.reserved
        in
        List.filter (fun r -> not (R.mem_reg keep r)) all_regs
      end
    in
    (* opaque-constant layer: sometimes dispatch the gadget through a
       jmp-reg trampoline with its address recovered from the P1 array
       (the recovery pollutes the flags, so only when they are dead) *)
    if (not flags_live) && Builder.opaque_roll b then
      Builder.g_opaque b ~clobber ~live [ i ]
    else Builder.g b ~clobber [ i ]
  in
  (* split an ALU immediate into a chain operand with some probability, for
     diversity and to give gadget confusion material to work on *)
  let alu_imm_split op w d v =
    if Util.Rng.int b.Builder.rng 100 < 50 then
      Builder.with_scratch b ~live ~avoid:(Analysis.Reguse.use_operand d) 1
        (fun regs ->
           match regs with
           | [ s ] ->
             if (not flags_live) && Builder.opaque_roll b then
               Builder.opaque_load b ~live s v
             else Builder.load_imm b ~scratch:[] s v;
             Builder.g b [ Alu (op, w, d, Reg s) ]
           | regs ->
             Builder.template_error
               "Rewriter.alu_imm_split (imm -> chain operand, 1 scratch)" regs)
    else direct ()
  in
  match i with
  | Nop -> ()
  | Push (Reg RSP) -> raise (Unsupported "push rsp")
  | Push (Mem m) when mentions_rsp_mem m -> raise (Unsupported "push [rsp+..]")
  | Push (Reg r) -> Builder.vpush_reg b ~live r
  | Push (Imm v) -> Builder.vpush_imm b ~live v
  | Push (Mem m) ->
    Builder.with_scratch b ~live ~avoid:(Analysis.Reguse.use_mem m) 1
      (fun regs ->
         match regs with
         | [ s ] ->
           Builder.g b [ Mov (W64, Reg s, Mem m) ];
           Builder.vpush_reg b ~live:(R.add live s) s
         | regs ->
           Builder.template_error
             "Rewriter.translate_instr (push [mem], 1 scratch)" regs)
  | Pop (Reg RSP) -> raise (Unsupported "pop rsp")
  | Pop (Reg r) -> Builder.vpop b ~live r
  | Pop (Imm _) | Pop (Mem _) -> raise (Unsupported "pop to memory")
  | Mov (W64, Reg RBP, Reg RSP) -> Builder.rsp_to_reg b ~live RBP
  | Mov (W64, Reg RSP, Reg r) when r <> RSP -> Builder.reg_to_rsp b ~live r
  | Mov (W64, Reg r, Reg RSP) when r <> RSP -> Builder.rsp_to_reg b ~live r
  | Mov (_, Reg RSP, _) | Mov (_, _, Reg RSP) ->
    raise (Unsupported "unhandled rsp move")
  | Mov (w, Reg r, Mem m) when mentions_rsp_mem m ->
    (match m.base, m.index with
     | Some RSP, None ->
       Builder.rsp_read b ~live
         ~move:(fun d s ->
             match w with
             | W64 -> Mov (W64, Reg d, s)
             | w -> Movzx (W64, w, d, s))
         r (Int64.to_int m.disp)
     | _ -> raise (Unsupported "rsp-indexed addressing"))
  | Movzx (dw, sw, r, Mem m) when mentions_rsp_mem m ->
    (match m.base, m.index with
     | Some RSP, None ->
       Builder.rsp_read b ~live ~move:(fun d s -> Movzx (dw, sw, d, s))
         r (Int64.to_int m.disp)
     | _ -> raise (Unsupported "rsp-indexed addressing"))
  | Movsx (dw, sw, r, Mem m) when mentions_rsp_mem m ->
    (match m.base, m.index with
     | Some RSP, None ->
       Builder.rsp_read b ~live ~move:(fun d s -> Movsx (dw, sw, d, s))
         r (Int64.to_int m.disp)
     | _ -> raise (Unsupported "rsp-indexed addressing"))
  | Mov (w, Mem m, Reg r) when mentions_rsp_mem m ->
    (match m.base, m.index with
     | Some RSP, None -> Builder.rsp_write b ~live w (Int64.to_int m.disp) r
     | _ -> raise (Unsupported "rsp-indexed addressing"))
  | Mov (w, Mem m, Imm v) when mentions_rsp_mem m ->
    (match m.base, m.index with
     | Some RSP, None ->
       Builder.with_scratch b ~live ~avoid:R.empty 1 (fun regs ->
           match regs with
           | [ s ] ->
             Builder.load_imm b ~scratch:[] s v;
             Builder.rsp_write b ~live:(R.add live s) w (Int64.to_int m.disp) s
           | regs ->
             Builder.template_error
               "Rewriter.translate_instr ([rsp+disp] := imm, 1 scratch)" regs)
     | _ -> raise (Unsupported "rsp-indexed addressing"))
  | Lea (r, m) when mentions_rsp_mem m ->
    (match m.base, m.index with
     | Some RSP, None -> Builder.rsp_lea b ~live r (Int64.to_int m.disp)
     | _ -> raise (Unsupported "rsp-indexed lea"))
  | Alu (Add, W64, Reg RSP, Imm v) -> Builder.rsp_adjust b ~live v
  | Alu (Sub, W64, Reg RSP, Imm v) -> Builder.rsp_adjust b ~live (Int64.neg v)
  | Alu (_, _, d, s) when mentions_rsp_op d || mentions_rsp_op s ->
    raise (Unsupported "alu on rsp")
  | Leave ->
    (* mov rsp, rbp; pop rbp *)
    Builder.reg_to_rsp b ~live RBP;
    Builder.vpop b ~live RBP
  | Call (J_rel _) | Call (J_op _) ->
    invalid_arg
      "Rewriter.translate_instr: calls are lowered by the block emitter \
       (native_call needs the call site's own address)"
  | Xchg (_, a, bb) when mentions_rsp_op a || mentions_rsp_op bb ->
    raise (Unsupported "xchg with rsp")
  | Mov (W64, Reg r, Imm v) when (not flags_live) && Builder.opaque_roll b ->
    (* opaque-constant layer: the value never appears in the chain bytes *)
    Builder.opaque_load b ~live r v
  | Mov (W64, Reg r, Imm v) ->
    (* idiomatic pop-from-chain load; subject to immediate confusion *)
    Builder.with_scratch b ~live ~avoid:(R.of_reg r) 1 (fun regs ->
        Builder.load_imm b ~scratch:(List.map (fun r -> r) regs) r v)
  | Alu (op, w, d, Imm v)
    when op <> Cmp && op <> Test && not (mentions_rsp_op d) ->
    alu_imm_split op w d v
  | Mov _ | Movzx _ | Movsx _ | Lea _ | Alu _ | Unary _ | Imul2 _
  | MulDiv _ | Shift _ | Cmov _ | Setcc _ | Xchg _ | Lahf | Sahf ->
    direct ()
  | (Hlt | Ret | Jmp _ | Jcc _) as i ->
    invalid_arg
      (Printf.sprintf
         "Rewriter.translate_instr: terminator '%s' reached the \
          instruction translator (terminators are lowered from the CFG \
          block structure)"
         (X86.Pp.instr_str i))

(* --- per-function rewriting ------------------------------------------------ *)

type session = {
  img : Image.t;
  config : Config.t;
  rng : Util.Rng.t;
  pool : Pool.t;
  ss_addr : int64;
  funcret_gadget : int64;
  rop_buf : Buffer.t;            (* accumulates the .rop section *)
}

let rop_cursor s = Int64.add Image.rop_base (Int64.of_int (Buffer.length s.rop_buf))

let rop_align8 s =
  while Buffer.length s.rop_buf land 7 <> 0 do
    Buffer.add_char s.rop_buf '\000'
  done

(* Reserve [n] zeroed bytes in .rop and return their address. *)
let rop_alloc s n =
  rop_align8 s;
  let addr = rop_cursor s in
  Buffer.add_bytes s.rop_buf (Bytes.make n '\000');
  addr

let rop_emit s (b : bytes) =
  rop_align8 s;
  let addr = rop_cursor s in
  Buffer.add_bytes s.rop_buf b;
  addr

(* Create the P1 array for one function: p periods of s cells; cell
   [i*s + c] for class c < n holds a random value congruent to a_c mod m;
   the remaining (garbage) cells are random (§V-A). *)
let make_p1_array s (p1 : Config.p1_params) =
  let a = Array.init p1.Config.n (fun _ -> Util.Rng.int s.rng p1.Config.m) in
  let cells = Bytes.create (8 * p1.Config.p * p1.Config.s) in
  for i = 0 to p1.Config.p - 1 do
    for c = 0 to p1.Config.s - 1 do
      let residue =
        if c < p1.Config.n then a.(c) else Util.Rng.int s.rng p1.Config.m
      in
      let v =
        Int64.add
          (Int64.mul (Int64.of_int p1.Config.m)
             (Int64.of_int (Util.Rng.int s.rng 0x0FFFFFF)))
          (Int64.of_int residue)
      in
      let off = 8 * (i * p1.Config.s + c) in
      for k = 0 to 7 do
        Bytes.set cells (off + k)
          (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff))
      done
    done
  done;
  (a, cells)

(* Registers the lowering of [bi] must preserve: whatever is live after it
   plus the instruction's own sources.  Its destinations are deliberately NOT
   protected: every lowering template writes them last, and for calls the
   clobbered caller-saved registers are exactly the scratch the chain wants
   (they are what the paper's allocator picks first). *)
let live_for live_info (bi : Cfg.binstr) =
  R.union (Analysis.Liveness.live_out_at live_info bi.Cfg.addr) bi.Cfg.uses

let rewrite_function (s : session) fname
  : (func_stats * Audit.func Lazy.t, failure) Stdlib.result =
  match Obs.Trace.with_span ~args:[ ("func", fname) ] "rewrite.cfg"
          (fun () -> Cfg.of_image s.img fname)
  with
  | exception Cfg.Analysis_error _ -> Error F_cfg
  | cfg when cfg.Cfg.failed -> Error F_cfg
  | cfg ->
    let sym =
      match Image.find_symbol s.img fname with
      | Some sy -> sy
      | None ->
        invalid_arg
          ("Rewriter.rewrite_function: no symbol for function '" ^ fname
           ^ "' (CFG reconstruction succeeded, so the symbol table and \
              section map disagree)")
    in
    if sym.Image.sym_size < pivot_stub_size then Error F_too_small
    else begin
      let live_info =
        Obs.Trace.with_span ~args:[ ("func", fname) ] "rewrite.liveness"
          (fun () -> Analysis.Liveness.compute cfg)
      in
      (* per-function ABI data in .rop *)
      let spill_base = rop_alloc s (8 * s.config.Config.spill_slots) in
      let flags_spill = rop_alloc s 16 in
      let p1_array, p1_class_a =
        match s.config.Config.p1 with
        | Some p1 ->
          let a, cells = make_p1_array s p1 in
          let addr = rop_emit s cells in
          (addr, a)
        | None -> (0L, [||])
      in
      let b =
        Builder.create ~pool:s.pool ~config:s.config
          ~rng:(Util.Rng.split s.rng) ~fname ~ss_addr:s.ss_addr
          ~spill_base ~flags_spill ~funcret_gadget:s.funcret_gadget
          ~p1_array ~p1_class_a
      in
      (* trampolines for P2-protected taken edges, emitted after the blocks *)
      let trampolines = ref [] in
      (* jump tables to patch once the chain layout is final *)
      let table_jobs : (int64 * string * int64 list) list ref = ref [] in
      (* instruction hiding: one seeded fault per function at most *)
      let hidden_fault_done = ref false in
      let emit_block_body block =
        List.iter
          (fun bi ->
             let live = live_for live_info bi in
             let flags_live =
               Analysis.Liveness.flags_live_after live_info bi.Cfg.addr
               || R.mem_flags bi.Cfg.uses
             in
             b.Builder.program_points <- b.Builder.program_points + 1;
             let uses = bi.Cfg.uses and defs = bi.Cfg.defs in
             Builder.begin_point b ~addr:bi.Cfg.addr
               ~desc:(lazy (X86.Pp.instr_str bi.Cfg.instr)) ~live
               ~flags_live:
                 (Analysis.Liveness.flags_live_after live_info bi.Cfg.addr)
               ~defs;
             (* instruction hiding layer: offer the roplet to the P3
                predicate as a payload.  Calls keep their dedicated lowering
                (the stack switch must not sit inside a predicate body), and
                flag-live points are excluded: the payload would run inside
                the flag spill/restore bracket. *)
             let hideable =
               s.config.Config.instr_hiding && not flags_live
               && (match bi.Cfg.instr with Call _ | Nop -> false | _ -> true)
             in
             let hidden =
               if not hideable then begin
                 ignore (Predicates.maybe_p3 b ~live ~flags_live : bool);
                 false
               end
               else begin
                 let payload =
                   { Predicates.pl_avoid = R.union uses defs;
                     pl_emit =
                       (fun ~extra_live ->
                          let lo = Chain.length b.Builder.chain in
                          translate_instr b ~live:(R.union live extra_live)
                            ~flags_live bi;
                          (* seeded fault: a stray increment of a defined
                             register.  The clobber check excuses writes to
                             p_defs, so only a semantic validation of the
                             hidden region (roplint Transval) can see it. *)
                          (if s.config.Config.debug_hidden_payload
                              && not !hidden_fault_done then
                             match
                               List.filter
                                 (fun r -> not (R.mem_reg Builder.reserved r))
                                 (R.to_list defs)
                             with
                             | r :: _ ->
                               hidden_fault_done := true;
                               Builder.g b [ Unary (Inc, W64, Reg r) ]
                             | [] -> ());
                          Builder.note_hidden b lo
                            (Chain.length b.Builder.chain)) }
                 in
                 Predicates.maybe_p3 ~payload b ~live ~flags_live
               end
             in
             (if not hidden then
                match bi.Cfg.instr with
                | Call (J_rel d) ->
                  let target = Int64.add (Cfg.next_addr bi) (Int64.of_int d) in
                  Builder.native_call b ~live (Builder.Ct_imm target)
                | Call (J_op (Reg r)) ->
                  Builder.native_call b ~live (Builder.Ct_reg r)
                | Call (J_op (Mem m)) when not (mentions_rsp_mem m) ->
                  Builder.with_scratch b ~live
                    ~avoid:(Analysis.Reguse.use_mem m)
                    1 (fun regs ->
                        match regs with
                        | [ sr ] ->
                          Builder.g b [ Mov (W64, Reg sr, Mem m) ];
                          Builder.native_call b ~live:(R.add live sr)
                            (Builder.Ct_reg sr)
                        | regs ->
                          Builder.template_error
                            "Rewriter.emit_block_body (call [mem], 1 scratch)"
                            regs)
                | Call (J_op _) -> raise (Unsupported "call through rsp memory")
                | _ -> translate_instr b ~live ~flags_live bi);
             if not flags_live then Builder.maybe_skew b;
             Builder.end_point b)
          block.Cfg.b_instrs
      in
      let order = cfg.Cfg.order in
      let next_of =
        let rec pairs = function
          | a :: (bb :: _ as rest) -> (a, Some bb) :: pairs rest
          | [ a ] -> [ (a, None) ]
          | [] -> []
        in
        pairs order
      in
      let result =
        Obs.Trace.with_span ~args:[ ("func", fname) ] "rewrite.lower"
        @@ fun () ->
        try
          List.iter
            (fun (addr, next) ->
               let block = Cfg.block_exn cfg addr in
               Chain.label b.Builder.chain (Builder.block_label addr);
               emit_block_body block;
               let term_live =
                 match block.Cfg.b_term_instr with
                 | Some ti -> live_for live_info ti
                 | None -> R.all
               in
               let taddr, tdesc, tflags =
                 match block.Cfg.b_term_instr with
                 | Some ti ->
                   (ti.Cfg.addr, lazy (X86.Pp.instr_str ti.Cfg.instr),
                    Analysis.Liveness.flags_live_after live_info ti.Cfg.addr)
                 | None -> (addr, Lazy.from_val "fallthrough", false)
               in
               let point_live =
                 match block.Cfg.b_term with
                 | Cfg.T_ret -> Analysis.Liveness.exit_live
                 | Cfg.T_tail _ -> Analysis.Liveness.tail_live
                 | Cfg.T_hlt -> R.empty
                 | _ -> term_live
               in
               Builder.begin_point b ~addr:taddr ~desc:tdesc ~live:point_live
                 ~flags_live:tflags ~defs:R.empty;
               (match block.Cfg.b_term with
                | Cfg.T_hlt -> Builder.hlt b
                | Cfg.T_ret -> Builder.epilogue b ~live:Analysis.Liveness.exit_live
                | Cfg.T_tail t -> Builder.tail_jump b ~live:Analysis.Liveness.tail_live t
                | Cfg.T_jmp t ->
                  Builder.branch b ~live:term_live ~cc:None
                    ~target:(Builder.block_label t)
                | Cfg.T_fall f ->
                  if next <> Some f then
                    Builder.branch b ~live:term_live ~cc:None
                      ~target:(Builder.block_label f)
                | Cfg.T_jcc (cc, t, f) ->
                  let bv =
                    if s.config.Config.p2 && (cc = E || cc = NE) then
                      match List.rev block.Cfg.b_instrs with
                      | last :: _ -> Predicates.branch_value_of_instr last.Cfg.instr
                      | [] -> None
                    else None
                  in
                  (match bv with
                   | Some bv ->
                     (* the guards recompute d from the compared registers,
                        so those stay live through the branch group *)
                     let live =
                       R.union term_live (Predicates.branch_value_regs bv)
                     in
                     Builder.widen_point_live b
                       (Predicates.branch_value_regs bv);
                     let tramp = Builder.fresh b "p2t" in
                     Builder.branch b ~live ~cc:(Some cc) ~target:tramp;
                     trampolines :=
                       (tramp, cc, bv, Builder.block_label t, live)
                       :: !trampolines;
                     (* fall-through guard sits inline, before the next
                        block's label so only this edge runs it *)
                     Predicates.fall_guard b ~live ~cc bv
                   | None ->
                     Builder.branch b ~live:term_live ~cc:(Some cc)
                       ~target:(Builder.block_label t));
                  if next <> Some f then
                    Builder.branch b ~live:term_live ~cc:None
                      ~target:(Builder.block_label f)
                | Cfg.T_jmp_table { jump_reg; table_addr; entries; _ } ->
                  let anchor = Builder.table_jump b ~live:term_live jump_reg in
                  table_jobs := (table_addr, anchor, entries) :: !table_jobs
                | Cfg.T_jmp_unresolved _ -> raise (Unsupported "indirect jump"));
               Builder.end_point b)
            next_of;
          (* P2 trampolines: taken-edge guard, then the real transfer *)
          List.iter
            (fun (tramp, cc, bv, target, live) ->
               Chain.label b.Builder.chain tramp;
               Builder.begin_point b ~addr:0L
                 ~desc:(lazy ("p2 trampoline " ^ tramp))
                 ~live ~flags_live:false ~defs:R.empty;
               Predicates.taken_guard b ~live ~cc bv;
               Builder.branch b ~live ~cc:None ~target;
               Builder.end_point b)
            (List.rev !trampolines);
          Ok ()
        with
        | Builder.Bail m -> Error (F_register_pressure m)
        | Unsupported m -> Error (F_unsupported m)
      in
      match result with
      | Error e -> Error e
      | Ok () ->
        (* materialize *)
        rop_align8 s;
        let base = rop_cursor s in
        let rngj = Util.Rng.split s.rng in
        let m =
          Obs.Trace.with_span ~args:[ ("func", fname) ] "rewrite.materialize"
            (fun () ->
               Chain.materialize
                 ~junk:(fun _ -> Util.Rng.int rngj 256)
                 ~base b.Builder.chain)
        in
        let addr = rop_emit s m.Chain.bytes in
        assert (addr = base);
        (* install the pivot stub over the original body; the early
           pivot_stub_size check is an estimate, so re-check with the actual
           addresses rather than crash in Image.replace_function_body *)
        let stub = pivot_stub ~ss_addr:s.ss_addr ~chain_addr:base in
        if Bytes.length stub > sym.Image.sym_size then Error F_too_small
        else begin
          Image.replace_function_body s.img sym stub;
          (* patch the jump tables with chain displacements *)
          List.iter
            (fun (table_addr, anchor, entries) ->
               List.iteri
                 (fun i target ->
                    let v =
                      Chain.label_delta m ~target:(Builder.block_label target)
                        ~anchor
                    in
                    Image.patch s.img
                      (Int64.add table_addr (Int64.of_int (8 * i))) 8 v)
                 entries)
            !table_jobs;
          let block_offsets =
            Hashtbl.fold
              (fun name off acc ->
                 if String.length name > 3 && String.sub name 0 3 = "bb_" then
                   off :: acc
                 else acc)
              m.Chain.offsets []
            |> List.sort compare
          in
          let points = Builder.points b in
          let tables = !table_jobs in
          (* the audit record is built only if someone asks for it (the
             verifier, roplint, the tests); serving never does *)
          let fa =
            lazy begin
              let layout = Lazy.force m.Chain.layout in
              let audit_points =
                List.map
                  (fun (p : Builder.point) ->
                     { Audit.p_addr = p.Builder.pt_addr;
                       p_desc = Lazy.force p.Builder.pt_desc;
                       p_live = p.Builder.pt_live;
                       p_flags_live = p.Builder.pt_flags_live;
                       p_defs = p.Builder.pt_defs;
                       p_borrowed = p.Builder.pt_borrowed;
                       p_slots =
                         Array.sub layout p.Builder.pt_start
                           (p.Builder.pt_stop - p.Builder.pt_start);
                       p_hidden =
                         (match p.Builder.pt_hidden with
                          | None -> None
                          | Some (lo, hi) ->
                            (* slot indices -> chain byte offsets *)
                            let off i =
                              if i < Array.length layout then fst layout.(i)
                              else Bytes.length m.Chain.bytes
                            in
                            Some (off lo, off hi)) })
                  points
              in
              { Audit.f_name = fname;
                f_sym_addr = sym.Image.sym_addr;
                f_sym_size = sym.Image.sym_size;
                f_stub_len = Bytes.length stub;
                f_chain_base = base;
                f_chain_len = Bytes.length m.Chain.bytes;
                f_layout = layout;
                f_labels =
                  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Chain.offsets
                    [];
                f_points = audit_points;
                f_tables =
                  List.map
                    (fun (table_addr, anchor, entries) ->
                       (table_addr, anchor,
                        List.map Builder.block_label entries))
                    tables;
                f_p1 =
                  (match s.config.Config.p1 with
                   | Some p1 when p1_array <> 0L ->
                     Some (p1_array, p1, p1_class_a)
                   | _ -> None) }
            end
          in
          Ok
            ({ fs_points = b.Builder.program_points;
               fs_chain_bytes = Bytes.length m.Chain.bytes;
               fs_chain_addr = base;
               fs_blocks = List.length order;
               fs_block_offsets = block_offsets },
             fa)
        end
    end

(* --- session --------------------------------------------------------------- *)

(* The shareable half of a rewrite: everything that depends only on the
   input image and the function list, never on the configuration or seed.
   A resident server (lib/serve) prepares a context once per program and
   reuses it across requests, paying the gadget scan — the most expensive
   config-independent phase — exactly once; a one-shot [rewrite] call
   prepares and discards one.  The context is immutable by contract:
   [rewrite_with] copies [ctx_img] before mutating anything, so concurrent
   or repeated rewrites from one context are independent and each is
   byte-identical to a fresh one-shot run with the same configuration. *)
type context = {
  ctx_img : Image.t;             (* pristine input image; never mutated *)
  ctx_functions : string list;
  ctx_found : Gadget.t list;     (* gadget scan of the unobfuscated parts *)
}

let prepare ?(found_gadget_scan = true) (img : Image.t) ~functions : context =
  let img = Image.copy img in
  let found =
    Obs.Trace.with_span "rewrite.gadget_scan" (fun () ->
        if found_gadget_scan then Finder.scan_image img ~excluding:functions
        else [])
  in
  { ctx_img = img; ctx_functions = functions; ctx_found = found }

let rewrite_with (ctx : context) ~(config : Config.t) : result =
  let img = Image.copy ctx.ctx_img in
  let functions = ctx.ctx_functions in
  let rng = Util.Rng.create config.Config.seed in
  let found = ctx.ctx_found in
  let text = Image.section_exn img ".text" in
  let pool_base = Image.section_end text in
  let pool =
    Obs.Trace.with_span "rewrite.pool_build" (fun () ->
        Pool.create ~variants:config.Config.variants ~rng:(Util.Rng.split rng)
          ~next_addr:pool_base found)
  in
  let rop_buf = Buffer.create 4096 in
  let s =
    { img; config; rng; pool;
      ss_addr = Image.rop_base;         (* ss is the first .rop object *)
      funcret_gadget = 0L;              (* patched below *)
      rop_buf }
  in
  (* ss array: 64 frames *)
  let ss_addr = rop_alloc s (8 * 64) in
  assert (ss_addr = Image.rop_base);
  (* synthetic function-return gadget with hard-wired ss address *)
  let funcret =
    Pool.request_jop pool
      [ Mov (W64, Reg R11, Imm ss_addr);
        Alu (Add, W64, Reg R11, Mem (mem_b R11 0));
        Xchg (W64, Reg RSP, Mem (mem_b R11 0));
        Ret ]
  in
  let s = { s with funcret_gadget = funcret } in
  Pool.reset_stats pool;   (* the funcret request should not skew Table III *)
  let raw =
    List.map
      (fun fname ->
         (* per-function layer split: resolve the config that applies to this
            function (identity unless [config.per_function] is set); the
            session RNG stays shared so the split perturbs nothing else *)
         let fs = { s with config = Config.for_function config fname } in
         (fname,
          Obs.Trace.with_span ~args:[ ("func", fname) ] "rewrite.function"
            (fun () -> rewrite_function fs fname)))
      functions
  in
  let funcs =
    List.map (fun (fname, r) -> (fname, Result.map fst r)) raw
  in
  (* append synthesized gadgets to .text and create the .rop section *)
  let pool_bytes = Pool.emitted_bytes pool in
  let appended_at = Image.append img ".text" pool_bytes in
  assert (appended_at = pool_base);
  ignore
    (Image.add_section img ~name:".rop" ~addr:Image.rop_base
       ~data:(Buffer.to_bytes rop_buf) ~writable:true ~executable:false);
  Image.add_symbol img ~name:"__ss" ~addr:ss_addr ~size:(8 * 64) ();
  let uses, uniq = Pool.stats pool in
  if Obs.Metrics.enabled () then begin
    let c = Obs.Metrics.count in
    c "rewrite.found_gadgets" (List.length found);
    c "rewrite.gadget_uses" uses;
    c "rewrite.unique_gadgets" uniq;
    c "rewrite.pool_bytes" (Bytes.length pool_bytes);
    c "rewrite.funcs_attempted" (List.length raw);
    List.iter
      (fun (_, r) ->
         match r with
         | Ok (fs, _) ->
           c "rewrite.funcs_ok" 1;
           c "rewrite.points" fs.fs_points;
           c "rewrite.chain_bytes" fs.fs_chain_bytes;
           Obs.Metrics.observe_named "rewrite.blocks_per_func" fs.fs_blocks
         | Error _ -> c "rewrite.funcs_failed" 1)
      raw
  end;
  let pool_hi = Int64.add pool_base (Int64.of_int (Bytes.length pool_bytes)) in
  let audit =
    lazy
      { Audit.a_ss_addr = ss_addr;
        a_funcret = funcret;
        a_pool_lo = pool_base;
        a_pool_hi = pool_hi;
        a_gadgets =
          List.map
            (fun (e : Pool.entry) ->
               { Audit.g_addr = e.Pool.gadget.Gadget.addr;
                 g_gadget = e.Pool.gadget;
                 g_prefix = e.Pool.prefix;
                 g_found = e.Pool.is_found })
            (Pool.all_gadgets pool);
        a_funcs =
          List.filter_map
            (fun (_, r) ->
               match r with
               | Ok (_, fa) -> Some (Lazy.force fa)
               | Error _ -> None)
            raw }
  in
  { image = img; funcs; total_gadget_uses = uses; unique_gadgets = uniq;
    audit }

(* One-shot entry point: prepare a throwaway context and rewrite once.  The
   CLI, the experiment harness and the tests all come through here; the
   server keeps its own contexts warm and calls [rewrite_with] directly. *)
let rewrite ?found_gadget_scan (img : Image.t) ~functions
    ~(config : Config.t) : result =
  rewrite_with (prepare ?found_gadget_scan img ~functions) ~config

(* The four verification passes (ropcheck's core).

   Input: a rewritten image plus the rewriter's audit artifact (Ropc.Audit).
   The audit is a set of *claims*; every pass re-derives the corresponding
   fact from the image bytes and reports divergence as a typed diagnostic.

   Pass 1  gadget summaries   decode each pool gadget from the image, check
                              it against the recorded body, and abstract it
                              into a transfer summary (Summary.t).
   Pass 2  chain typechecking byte-check every materialized slot, then walk
                              the chain abstractly: each ret must land on a
                              gadget slot, skews must be skipped exactly, and
                              P1 array cells must keep their class residue.
   Pass 3  clobber validation replay each roplet's gadget writes against the
                              liveness facts the lowering claimed.
   Pass 4  image layout       sections disjoint, pivot stub installed and in
                              bounds, chains inside .rop, jump-table entries
                              equal to their label displacement. *)

module R = Analysis.Regset
module A = Ropc.Audit
open X86.Isa

(* --- image helpers -------------------------------------------------------- *)

let section_of_addr (img : Image.t) addr =
  List.find_opt
    (fun s ->
       Int64.compare s.Image.sec_addr addr <= 0
       && Int64.compare addr (Image.section_end s) < 0)
    img.Image.sections

let read64 img addr =
  let rec go i acc =
    if i < 0 then Some acc
    else
      match Image.read_byte img (Int64.add addr (Int64.of_int i)) with
      | None -> None
      | Some b ->
        go (i - 1) (Int64.logor (Int64.shift_left acc 8) (Int64.of_int b))
  in
  go 7 0L

(* --- pass 1: gadget summaries --------------------------------------------- *)

(* Decode [n] instructions from the image starting at [addr]. *)
let decode_at img addr n =
  match section_of_addr img addr with
  | None -> None
  | Some s ->
    let off0 = Int64.to_int (Int64.sub addr s.Image.sec_addr) in
    let rec go off k acc =
      if k = 0 then Some (List.rev acc)
      else
        match X86.Decode.decode s.Image.sec_data off with
        | None -> None
        | Some (i, len) -> go (off + len) (k - 1) (i :: acc)
    in
    go off0 n []

(* Does the body read the status flags before (re)writing them?  Decides
   whether a flag-clobbering diversification prefix is safe to prepend. *)
let rec reads_flags_first = function
  | [] -> false
  | i :: rest ->
    if Analysis.Reguse.reads_flags i then true
    else if Analysis.Reguse.clobbers_flags i then false
    else reads_flags_first rest

let gadget_pass img (audit : A.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let summaries = Hashtbl.create (List.length audit.A.a_gadgets) in
  List.iter
    (fun (g : A.gadget_rec) ->
       let claimed = Gadget.instrs g.A.g_gadget in
       Hashtbl.replace summaries g.A.g_addr (Summary.of_instrs claimed);
       (* the claimed body must be what the image actually decodes to *)
       (match decode_at img g.A.g_addr (List.length claimed) with
        | None ->
          emit (Diag.make ~addr:g.A.g_addr Diag.Gadget_decode_mismatch
                  "gadget bytes do not decode")
        | Some actual ->
          if actual <> claimed then
            emit
              (Diag.make ~addr:g.A.g_addr Diag.Gadget_decode_mismatch
                 (Printf.sprintf "image decodes to [%s], audit claims [%s]"
                    (String.concat "; " (List.map X86.Pp.instr_str actual))
                    (String.concat "; "
                       (List.map X86.Pp.instr_str claimed)))));
       (* ending class sanity: a ret-gadget must end in ret; a jop gadget in
          jmp-reg (the shared funcret gadget legitimately ends in ret after
          an rsp exchange, so accept both there) *)
       let s = Summary.of_instrs claimed in
       (match g.A.g_gadget.Gadget.ending, s.Summary.ending with
        | Gadget.E_ret, Summary.End_ret -> ()
        | Gadget.E_jop _,
          (Summary.End_jop | Summary.End_switch_call | Summary.End_ret) -> ()
        | _, e ->
          emit
            (Diag.make ~addr:g.A.g_addr Diag.Gadget_bad_ending
               (Printf.sprintf "gadget body ends in %s"
                  (Summary.ending_str e))));
       (* diversification-prefix safety: the prefix may only write its
          recorded registers, and a flag-clobbering prefix must not feed a
          body that reads flags before rewriting them *)
       (match g.A.g_prefix, g.A.g_gadget.Gadget.body with
        | [], _ -> ()
        | _ :: _, [] ->
          emit
            (Diag.make ~addr:g.A.g_addr Diag.Gadget_prefix_unsafe
               "prefix recorded but gadget body is empty")
        | regs, first :: rest ->
          let _, defs = Analysis.Reguse.def_use first in
          let extra =
            R.diff (R.diff defs (R.of_list regs)) R.flags_bit
          in
          if extra <> R.empty then
            emit
              (Diag.make ~addr:g.A.g_addr Diag.Gadget_prefix_unsafe
                 (Format.asprintf
                    "prefix %s writes %a beyond its recorded set"
                    (X86.Pp.instr_str first) R.pp extra));
          if Analysis.Reguse.clobbers_flags first
             && reads_flags_first rest then
            emit
              (Diag.make ~addr:g.A.g_addr Diag.Gadget_prefix_unsafe
                 (Printf.sprintf
                    "flag-clobbering prefix %s feeds a flag-reading body"
                    (X86.Pp.instr_str first))));
       (* synthesized gadgets must live inside the recorded pool range *)
       if not g.A.g_found
          && not (Int64.compare audit.A.a_pool_lo g.A.g_addr <= 0
                  && Int64.compare g.A.g_addr audit.A.a_pool_hi < 0)
       then
         emit
           (Diag.make ~addr:g.A.g_addr Diag.Gadget_outside_pool
              (Printf.sprintf "synthesized gadget outside pool [%Lx, %Lx)"
                 audit.A.a_pool_lo audit.A.a_pool_hi)))
    audit.A.a_gadgets;
  (List.rev !diags, summaries)

(* --- pass 2: chain typechecking ------------------------------------------- *)

let chain_pass img summaries (f : A.func) =
  let diags = ref [] in
  let emit ?severity ?addr ?chain_off kind msg =
    diags :=
      Diag.make ?severity ~func:f.A.f_name ?addr ?chain_off kind msg
      :: !diags
  in
  let chain_addr off = Int64.add f.A.f_chain_base (Int64.of_int off) in
  (* index the layout: 8-byte data slots and skew gaps, by chain offset *)
  let slot8 = Hashtbl.create 64 and skew_at = Hashtbl.create 8 in
  Array.iter
    (fun (off, s) ->
       match s with
       | Ropc.Chain.S_gadget _ | Ropc.Chain.S_imm _ | Ropc.Chain.S_disp _
       | Ropc.Chain.S_opaque _ | Ropc.Chain.S_opaque_dispatch _ ->
         Hashtbl.replace slot8 off s
       | Ropc.Chain.S_skew eta -> Hashtbl.replace skew_at off eta
       | Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _ -> ())
    f.A.f_layout;
  let label_off name = List.assoc_opt name f.A.f_labels in
  (* (a) byte check: every materialized slot must hold its symbolic value *)
  Array.iter
    (fun (off, s) ->
       let expect v =
         match read64 img (chain_addr off) with
         | Some actual when Int64.equal actual v -> ()
         | Some actual ->
           emit ~addr:(chain_addr off) ~chain_off:off Diag.Chain_byte_mismatch
             (Printf.sprintf "slot holds %Lx, expected %Lx" actual v)
         | None ->
           emit ~addr:(chain_addr off) ~chain_off:off Diag.Chain_byte_mismatch
             "slot is outside every section"
       in
       match s with
       | Ropc.Chain.S_gadget a | Ropc.Chain.S_imm a -> expect a
       | Ropc.Chain.S_opaque { oq_value; oq_cls; oq_residue; oq_mult } ->
         (* recompute the stored bytes from the P1 array's ground truth, not
            from the recorded residue: a slot encoded against the wrong
            residue class (the debug_opaque_residue seeded fault) genuinely
            recovers the wrong value at runtime, and must be flagged here *)
         let residue =
           match f.A.f_p1 with
           | Some (_, _, a) when oq_cls >= 0 && oq_cls < Array.length a ->
             Int64.of_int a.(oq_cls)
           | _ -> oq_residue
         in
         expect
           (Ropc.Chain.opaque_stored ~value:oq_value ~residue ~mult:oq_mult)
       | Ropc.Chain.S_opaque_dispatch { od_jop; _ } -> expect od_jop
       | Ropc.Chain.S_disp { target; anchor; bias } ->
         (match label_off target, label_off anchor with
          | Some t, Some a ->
            expect (Int64.sub (Int64.of_int (t - a)) bias);
            (* the displacement must deliver RSP onto a gadget slot *)
            (match Hashtbl.find_opt slot8 t with
             | Some (Ropc.Chain.S_gadget _ | Ropc.Chain.S_opaque_dispatch _)
               -> ()
             | _ ->
               emit ~chain_off:off Diag.Chain_bad_disp
                 (Printf.sprintf "target %s (chain+%d) is not a gadget slot"
                    target t))
          | None, _ ->
            emit ~chain_off:off Diag.Chain_bad_disp
              ("undefined displacement target " ^ target)
          | _, None ->
            emit ~chain_off:off Diag.Chain_bad_disp
              ("undefined displacement anchor " ^ anchor))
       | Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _
       | Ropc.Chain.S_skew _ -> ())
    f.A.f_layout;
  (* (b) P1 opaque-array residues: class cells must keep a_c (mod m) *)
  (match f.A.f_p1 with
   | None -> ()
   | Some (base, p1, a) ->
     let m = Int64.of_int p1.Ropc.Config.m in
     for i = 0 to p1.Ropc.Config.p - 1 do
       for c = 0 to p1.Ropc.Config.n - 1 do
         let cell =
           Int64.add base (Int64.of_int (8 * ((i * p1.Ropc.Config.s) + c)))
         in
         match read64 img cell with
         | None ->
           emit ~addr:cell Diag.Chain_p1_invariant
             "P1 array cell outside every section"
         | Some v ->
           if Int64.to_int (Int64.rem v m) <> a.(c) then
             emit ~addr:cell Diag.Chain_p1_invariant
               (Printf.sprintf
                  "cell %d.%d holds %Ld =/= %d (mod %d)" i c v a.(c)
                  p1.Ropc.Config.m)
       done
     done);
  (* (c) abstract walk.  RSP starts at chain+0; the other entry points are
     exactly the offsets some displacement slot or jump-table entry can
     deliver RSP to (anchors are RSP *bases*, never continuations, so
     seeding all of f_labels would walk past the chain end). *)
  let visited = Hashtbl.create 64 in   (* executed gadget-slot offsets *)
  let consumed = Hashtbl.create 64 in  (* slots popped as data *)
  let queue = Queue.create () in
  Queue.add 0 queue;
  Array.iter
    (fun (_, s) ->
       match s with
       | Ropc.Chain.S_disp { target; _ } ->
         (match label_off target with
          | Some t -> Queue.add t queue
          | None -> ())
       | _ -> ())
    f.A.f_layout;
  List.iter
    (fun (_, _, targets) ->
       List.iter
         (fun t ->
            match label_off t with
            | Some o -> Queue.add o queue
            | None -> ())
         targets)
    f.A.f_tables;
  (* consume [k] bytes of chain at [cur]; true if the layout supports it *)
  let skippable cur k =
    match Hashtbl.find_opt skew_at cur with
    | Some eta -> eta = k
    | None ->
      (* no skew: only whole 8-byte slots may be skipped *)
      k >= 0 && k mod 8 = 0
      && (let ok = ref true in
          for j = 0 to (k / 8) - 1 do
            if not (Hashtbl.mem slot8 (cur + (8 * j))) then ok := false
          done;
          !ok)
  in
  (* [spec] marks a speculative path: one entered by falling through an
     [Ev_branch] (rsp += reg).  The verifier cannot decide whether such a
     fall-through is live — P2 trampolines branch unconditionally and leave a
     dead restore gadget behind the anchor — so speculative paths are walked
     (to cover genuinely-live conditional fall-throughs and to suppress false
     unreachable-slot warnings) but never produce diagnostics.  A later
     non-speculative visit upgrades the offset and re-checks it for real. *)
  let rec step ~spec off =
    let revisit_ok =
      match Hashtbl.find_opt visited off with
      | None -> true
      | Some was_spec -> was_spec && not spec
    in
    if revisit_ok then begin
      Hashtbl.replace visited off spec;
      match Hashtbl.find_opt slot8 off with
      | None ->
        if not spec then
          emit ~chain_off:off Diag.Chain_bad_slot
            "execution reaches a chain offset holding no slot"
      | Some (Ropc.Chain.S_imm _ | Ropc.Chain.S_disp _
             | Ropc.Chain.S_opaque _) ->
        if not spec then
          emit ~chain_off:off Diag.Chain_bad_slot
            "execution lands on a data slot, not a gadget address"
      | Some (Ropc.Chain.S_gadget a) ->
        (match Hashtbl.find_opt summaries a with
         | None ->
           if not spec then
             emit ~chain_off:off ~addr:a Diag.Chain_unknown_gadget
               (Printf.sprintf "slot points at %Lx, not a known gadget" a)
         | Some (s : Summary.t) -> exec_summary ~spec off a s)
      | Some (Ropc.Chain.S_opaque_dispatch { od_jop; od_target }) ->
        (* the slot holds a jmp-reg trampoline; the register it jumps
           through was recovered opaquely and carries [od_target], whose
           own ret continues the chain.  Walk the target's summary as if
           its address sat in the slot. *)
        (match Hashtbl.find_opt summaries od_jop with
         | None ->
           if not spec then
             emit ~chain_off:off ~addr:od_jop Diag.Chain_unknown_gadget
               (Printf.sprintf
                  "dispatch slot points at %Lx, not a known gadget" od_jop)
         | Some (j : Summary.t) ->
           let stackless =
             List.for_all
               (function
                 | Summary.Ev_pop | Summary.Ev_skip _ | Summary.Ev_branch ->
                   false
                 | Summary.Ev_stop -> true)
               j.Summary.events
           in
           if j.Summary.ending <> Summary.End_jop || not stackless then begin
             if not spec then
               emit ~chain_off:off ~addr:od_jop Diag.Chain_stack_mismatch
                 (Printf.sprintf
                    "dispatch trampoline %Lx is not a stack-neutral \
                     jmp-reg gadget" od_jop)
           end
           else
             match Hashtbl.find_opt summaries od_target with
             | None ->
               if not spec then
                 emit ~chain_off:off ~addr:od_target Diag.Chain_unknown_gadget
                   (Printf.sprintf
                      "opaque dispatch targets %Lx, not a known gadget"
                      od_target)
             | Some (s : Summary.t) -> exec_summary ~spec off od_target s)
      | Some ((Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _
              | Ropc.Chain.S_skew _) as s) ->
        (* zero-width markers share offsets with data slots and are filtered
           out of [slot8]; reaching one means the layout table is corrupt *)
        invalid_arg
          (Printf.sprintf
             "Verify.Check.chain_pass: marker slot %s in %s at chain+%d \
              escaped the slot filter"
             (match s with
              | Ropc.Chain.S_label l -> Printf.sprintf "label %S" l
              | Ropc.Chain.S_anchor a -> Printf.sprintf "anchor %S" a
              | Ropc.Chain.S_skew k -> Printf.sprintf "skew %d" k
              | _ -> "?")
             f.A.f_name off)
    end
  (* run gadget [a]'s summary [s] for a slot at chain offset [off] *)
  and exec_summary ~spec off a (s : Summary.t) =
    let cur = ref (off + 8) and stopped = ref false in
    List.iter
      (fun ev ->
         if not !stopped then
           match ev with
           | Summary.Ev_pop ->
             if Hashtbl.mem slot8 !cur then begin
               Hashtbl.replace consumed !cur ();
               cur := !cur + 8
             end else begin
               if not spec then
                 emit ~chain_off:!cur ~addr:a Diag.Chain_stack_mismatch
                   (Printf.sprintf
                      "gadget %Lx pops chain+%d, which holds no slot"
                      a !cur);
               stopped := true
             end
           | Summary.Ev_skip k ->
             if skippable !cur k then cur := !cur + k
             else begin
               if not spec then
                 emit ~chain_off:!cur ~addr:a Diag.Chain_stack_mismatch
                   (Printf.sprintf
                      "gadget %Lx skips %d bytes at chain+%d, \
                       which the layout does not provide" a k !cur);
               stopped := true
             end
           | Summary.Ev_branch ->
             (* variable addend: the possible targets are covered by
                the displacement seeds; keep walking past the branch
                speculatively if a gadget sits there (the layout of a
                conditional fall-through), else stop *)
             (match Hashtbl.find_opt slot8 !cur with
              | Some (Ropc.Chain.S_gadget _
                     | Ropc.Chain.S_opaque_dispatch _) ->
                step ~spec:true !cur
              | _ -> ());
             stopped := true
           | Summary.Ev_stop -> stopped := true)
      s.Summary.events;
    if not !stopped then
      match s.Summary.ending with
      | Summary.End_ret | Summary.End_switch_call -> step ~spec !cur
      | Summary.End_jop | Summary.End_halt | Summary.End_fall -> ()
  in
  while not (Queue.is_empty queue) do
    step ~spec:false (Queue.pop queue)
  done;
  (* every gadget slot should either execute or be popped as data *)
  Array.iter
    (fun (off, s) ->
       match s with
       | Ropc.Chain.S_gadget _ | Ropc.Chain.S_opaque_dispatch _
         when (not (Hashtbl.mem visited off))
              && not (Hashtbl.mem consumed off) ->
         emit ~severity:Diag.Warning ~chain_off:off
           Diag.Chain_unreachable_slot
           "gadget slot neither executed nor consumed by the abstract walk"
       | _ -> ())
    f.A.f_layout;
  List.rev !diags

(* --- pass 3: clobber validation ------------------------------------------- *)

let clobber_pass summaries (f : A.func) =
  let diags = ref [] in
  List.iter
    (fun (p : A.point) ->
       let clobbered = ref R.empty and flags_dirty = ref false in
       let absorb a =
         match Hashtbl.find_opt summaries a with
         | None -> ()    (* pass 2 already reported it *)
         | Some (su : Summary.t) ->
           clobbered := R.union !clobbered su.Summary.writes;
           if su.Summary.flags_dirty then flags_dirty := true
           else if su.Summary.flags_written then flags_dirty := false
       in
       Array.iter
         (fun (_, s) ->
            match s with
            | Ropc.Chain.S_gadget a -> absorb a
            | Ropc.Chain.S_opaque_dispatch { od_jop; od_target } ->
              absorb od_jop; absorb od_target
            | _ -> ())
         p.A.p_slots;
       let excused =
         R.add (R.union p.A.p_defs p.A.p_borrowed) RSP
       in
       let bad = R.diff (R.inter !clobbered p.A.p_live) excused in
       List.iter
         (fun r ->
            diags :=
              Diag.make ~func:f.A.f_name ~addr:p.A.p_addr
                Diag.Clobber_live_reg
                (Printf.sprintf "roplet '%s' clobbers live register %s"
                   p.A.p_desc (X86.Pp.reg_name r))
              :: !diags)
         (R.to_list bad);
       if !flags_dirty && p.A.p_flags_live && not (R.mem_flags p.A.p_defs)
       then
         diags :=
           Diag.make ~func:f.A.f_name ~addr:p.A.p_addr Diag.Clobber_live_flags
             (Printf.sprintf "roplet '%s' leaves flags dirty while live"
                p.A.p_desc)
           :: !diags)
    f.A.f_points;
  List.rev !diags

(* --- pass 4: image layout ------------------------------------------------- *)

let layout_pass img (audit : A.t) (f : A.func) =
  let diags = ref [] in
  let emit ?addr kind msg =
    diags := Diag.make ~func:f.A.f_name ?addr kind msg :: !diags
  in
  (* the pivot stub must fit the original body and be byte-identical to a
     re-encoding from the recorded ss/chain addresses *)
  let stub =
    Ropc.Rewriter.pivot_stub ~ss_addr:audit.A.a_ss_addr
      ~chain_addr:f.A.f_chain_base
  in
  if Bytes.length stub > f.A.f_sym_size then
    emit ~addr:f.A.f_sym_addr Diag.Layout_stub_overflow
      (Printf.sprintf "pivot stub is %d bytes, function body only %d"
         (Bytes.length stub) f.A.f_sym_size);
  if Bytes.length stub <> f.A.f_stub_len then
    emit ~addr:f.A.f_sym_addr Diag.Layout_stub_mismatch
      (Printf.sprintf "recorded stub length %d, re-encoded %d"
         f.A.f_stub_len (Bytes.length stub))
  else begin
    let ok = ref true in
    Bytes.iteri
      (fun i b ->
         match Image.read_byte img
                 (Int64.add f.A.f_sym_addr (Int64.of_int i)) with
         | Some x when x = Char.code b -> ()
         | _ -> ok := false)
      stub;
    if not !ok then
      emit ~addr:f.A.f_sym_addr Diag.Layout_stub_mismatch
        "installed bytes differ from the re-encoded pivot stub"
  end;
  (* the chain must sit inside .rop *)
  (match Image.find_section img ".rop" with
   | None ->
     emit Diag.Layout_chain_bounds "image has no .rop section"
   | Some s ->
     let lo = s.Image.sec_addr and hi = Image.section_end s in
     let cend = Int64.add f.A.f_chain_base (Int64.of_int f.A.f_chain_len) in
     if Int64.compare f.A.f_chain_base lo < 0 || Int64.compare cend hi > 0
     then
       emit ~addr:f.A.f_chain_base Diag.Layout_chain_bounds
         (Printf.sprintf "chain [%Lx, %Lx) outside .rop [%Lx, %Lx)"
            f.A.f_chain_base cend lo hi));
  (* jump tables: each 8-byte entry must equal off(target) - off(anchor) and
     deliver RSP to a gadget slot *)
  let slot8_gadget off =
    Array.exists
      (fun (o, s) ->
         o = off
         && match s with Ropc.Chain.S_gadget _ -> true | _ -> false)
      f.A.f_layout
  in
  List.iter
    (fun (table_addr, anchor, targets) ->
       match List.assoc_opt anchor f.A.f_labels with
       | None ->
         emit ~addr:table_addr Diag.Layout_table_entry
           ("jump-table anchor " ^ anchor ^ " is not a chain label")
       | Some aoff ->
         List.iteri
           (fun i target ->
              let entry = Int64.add table_addr (Int64.of_int (8 * i)) in
              match List.assoc_opt target f.A.f_labels with
              | None ->
                emit ~addr:entry Diag.Layout_table_entry
                  ("jump-table target " ^ target ^ " is not a chain label")
              | Some toff ->
                let expected = Int64.of_int (toff - aoff) in
                (match read64 img entry with
                 | Some v when Int64.equal v expected -> ()
                 | Some v ->
                   emit ~addr:entry Diag.Layout_table_entry
                     (Printf.sprintf "entry %d holds %Ld, expected %Ld"
                        i v expected)
                 | None ->
                   emit ~addr:entry Diag.Layout_table_entry
                     "entry lies outside every section");
                if not (slot8_gadget toff) then
                  emit ~addr:entry Diag.Layout_table_entry
                    (Printf.sprintf
                       "entry %d target %s (chain+%d) is not a gadget slot"
                       i target toff))
           targets)
    f.A.f_tables;
  List.rev !diags

(* image-wide: no two non-empty sections may overlap *)
let sections_pass (img : Image.t) =
  let secs =
    List.filter (fun s -> Bytes.length s.Image.sec_data > 0)
      img.Image.sections
  in
  let rec pairs = function
    | [] -> []
    | s :: rest -> List.map (fun t -> (s, t)) rest @ pairs rest
  in
  List.filter_map
    (fun (a, b) ->
       let a_lo = a.Image.sec_addr and a_hi = Image.section_end a in
       let b_lo = b.Image.sec_addr and b_hi = Image.section_end b in
       if Int64.compare a_lo b_hi < 0 && Int64.compare b_lo a_hi < 0 then
         Some
           (Diag.make ~addr:(max a_lo b_lo) Diag.Layout_section_overlap
              (Printf.sprintf "%s [%Lx, %Lx) overlaps %s [%Lx, %Lx)"
                 a.Image.sec_name a_lo a_hi b.Image.sec_name b_lo b_hi))
       else None)
    (pairs secs)

(* --- driver ---------------------------------------------------------------- *)

let run img (audit : A.t) =
  let gdiags, summaries = gadget_pass img audit in
  let per_func =
    List.concat_map
      (fun f ->
         chain_pass img summaries f
         @ clobber_pass summaries f
         @ layout_pass img audit f)
      audit.A.a_funcs
  in
  gdiags @ per_func @ sections_pass img

let check (r : Ropc.Rewriter.result) =
  run r.Ropc.Rewriter.image (Lazy.force r.Ropc.Rewriter.audit)

(* Translation validation: per-rewritten-region equivalence.

   For every audit point that records an original instruction address
   (p_addr <> 0), the rewriter claims the point's chain slots implement
   exactly that instruction.  This pass checks the claim by dual symbolic
   execution: both the original instruction and its ROP lowering run from
   one shared fully-symbolic machine state (each register an 8-byte
   Input-vector, each flag a symbolic bit), and the final states are
   compared on the registers/flags the liveness facts say matter, plus the
   ordered memory write logs.

   Only *directly-lowered* regions are validated: stack-shaped instructions
   (push/pop/leave/anything mentioning rsp) are re-expressed against the
   virtual stack, and calls/branches/returns are re-expressed as stack
   switches or displacement arithmetic, so their state shape is
   intentionally different — those are Stackdisc's job.  Skipped regions
   are listed with the reason, never silently dropped.

   Equivalence oracle, two tiers:
   1. syntactic — the symbolic result expressions are structurally equal
      (spill/restore round-trips are transparent thanks to the symbolic
      store's exact-match forwarding);
   2. evaluation — both sides are evaluated under K seeded random input
      models (the same total algebra the repo's solver is built on); any
      disagreeing model is a definite counterexample and becomes an
      error-severity finding, agreement on all K models marks the region
      proven by the "eval" oracle.

   Chain-side writes to the rewriter's private state (ss array, spill
   slots, flag spill, all in .rop — a section the original image does not
   have) are filtered out of the write-log comparison by the concrete
   address test "not inside any original-image section". *)

open X86.Isa
module R = Analysis.Regset
module A = Ropc.Audit
module E = Symex.Expr
module S = Symex.Sym_state
module F = Verify.Finding

type verdict =
  | Proven of string              (* which oracle: "syntactic" / "eval" *)
  | Unproven of string            (* reason *)

type region = {
  rg_func : string;
  rg_addr : int64;                (* original instruction address *)
  rg_desc : string;               (* audit point description *)
  rg_verdict : verdict;
}

type result = {
  tv_regions : region list;       (* every eligible region, in audit order *)
  tv_skipped : (string * int64 * string) list;   (* func, addr, reason *)
  tv_proven : int;
  tv_unproven : int;
  tv_findings : F.t list;
}

(* --- shared symbolic initial state ---------------------------------------- *)

(* Register i is bytes 8i..8i+7 of the input vector; flags are bits of
   bytes 128..132. *)
let reg_expr i =
  let rec go k acc =
    if k = 8 then acc
    else
      go (k + 1)
        (E.bin E.Or acc
           (E.bin E.Shl (E.Input ((8 * i) + k)) (E.Const (Int64.of_int (8 * k)))))
  in
  go 1 (E.Input (8 * i))

let flag_expr j = E.bin E.And (E.Input (128 + j)) E.one

let init_state mem rip rsp =
  let st = S.create mem rip in
  for i = 0 to 15 do
    st.S.regs.(i) <- reg_expr i
  done;
  List.iteri (fun j fl -> S.set_flag st fl (flag_expr j)) S.Step.all_flags;
  S.set st RSP (E.Const rsp);
  st

let model =
  { S.toa = true;
    concretize = (fun _ _ -> None);
    on_write = (fun _ _ -> ()) }

(* --- syntactic equality ---------------------------------------------------- *)

(* Structural equality with a physical fast path.  [Load] nodes compare
   address, size and write log but NOT the base memory snapshot: the two
   sides run on different images by construction (original vs rewritten),
   and a Load that survives into a compared value references program state
   both sides share.  The approximation only ever misproves — a false
   syntactic mismatch falls through to the evaluation oracle. *)
let rec syn_eq a b =
  a == b
  || match a, b with
  | E.Const x, E.Const y -> x = y
  | E.Input x, E.Input y -> x = y
  | E.Bin (o1, a1, b1, _), E.Bin (o2, a2, b2, _) ->
    o1 = o2 && syn_eq a1 a2 && syn_eq b1 b2
  | E.Un (o1, a1, _), E.Un (o2, a2, _) -> o1 = o2 && syn_eq a1 a2
  | E.Ite (c1, t1, e1, _), E.Ite (c2, t2, e2, _) ->
    syn_eq c1 c2 && syn_eq t1 t2 && syn_eq e1 e2
  | E.Load (m1, a1, n1, _), E.Load (m2, a2, n2, _) ->
    n1 = n2 && syn_eq a1 a2
    && List.length m1.E.writes = List.length m2.E.writes
    && List.for_all2
         (fun (wa1, wv1, wn1) (wa2, wv2, wn2) ->
            wn1 = wn2 && syn_eq wa1 wa2 && syn_eq wv1 wv2)
         m1.E.writes m2.E.writes
  | _ -> false

(* --- region classification ------------------------------------------------- *)

let classify (i : instr) =
  match i with
  | Push _ | Pop _ | Leave -> Error "stack-shaped"
  | Call _ | Jmp _ | Jcc _ | Ret | Hlt -> Error "control transfer"
  | Nop -> Error "nop"
  | i ->
    let uses, defs = Analysis.Reguse.def_use i in
    if R.mem_reg defs RSP || R.mem_reg uses RSP then Error "mentions rsp"
    else Ok ()

(* A P3 state-forking loop shares the audit point of the instruction it
   shields, and its back-edge dispatch is input-dependent by design — the
   region is no longer a direct lowering.  The loop's labels/anchors are
   minted by [Builder.fresh] as "<fname>$p3<kind><n>" and survive in the
   slot array, which is how we recognize one. *)
let p3_shielded (p : A.point) =
  let is_p3 l =
    match String.index_opt l '$' with
    | Some k ->
      String.length l >= k + 3 && l.[k + 1] = 'p' && l.[k + 2] = '3'
    | None -> false
  in
  Array.exists
    (fun (_, s) ->
       match s with
       | Ropc.Chain.S_label l | Ropc.Chain.S_anchor l -> is_p3 l
       | _ -> false)
    p.A.p_slots

let slot_size = function
  | Ropc.Chain.S_gadget _ | Ropc.Chain.S_imm _ | Ropc.Chain.S_disp _
  | Ropc.Chain.S_opaque _ | Ropc.Chain.S_opaque_dispatch _ -> 8
  | Ropc.Chain.S_skew k -> k
  | Ropc.Chain.S_label _ | Ropc.Chain.S_anchor _ -> 0

(* First executable slot of the region and the offset one past its last
   byte (where the terminal ret must deliver rsp).  A dispatch slot's
   bytes hold the jmp-reg trampoline address, so it can open a region. *)
let region_bounds (p : A.point) =
  let entry = ref None and last = ref 0 in
  Array.iter
    (fun (off, s) ->
       (match s, !entry with
        | Ropc.Chain.S_gadget a, None -> entry := Some (off, a)
        | Ropc.Chain.S_opaque_dispatch { od_jop; _ }, None ->
          entry := Some (off, od_jop)
        | _ -> ());
       last := max !last (off + slot_size s))
    p.A.p_slots;
  (!entry, !last)

(* Instruction-hiding sub-region: the slice of a shielded point's slots
   holding the real roplet (byte range [lo, hi) of the chain, recorded by
   the rewriter).  Validating the slice as its own straight-line region
   keeps the semantic check alive even though the surrounding predicate is
   input-dependent. *)
let hidden_subpoint (p : A.point) =
  match p.A.p_hidden with
  | None -> None
  | Some (lo, hi) ->
    let slots =
      Array.of_list
        (List.filter (fun (off, _) -> off >= lo && off < hi)
           (Array.to_list p.A.p_slots))
    in
    let has_entry =
      Array.exists
        (fun (_, s) ->
           match s with
           | Ropc.Chain.S_gadget _ | Ropc.Chain.S_opaque_dispatch _ -> true
           | _ -> false)
        slots
    in
    if has_entry then Some { p with A.p_slots = slots; p_hidden = None }
    else None

(* --- oracles --------------------------------------------------------------- *)

let decode_one mem rip =
  let window = Machine.Memory.read_bytes_avail mem rip X86.Encode.max_instr_len in
  X86.Decode.decode window 0

(* Compared state: live/defined registers (minus rsp), flags when live,
   plus the filtered ordered write log. *)
type compared = {
  c_regs : (reg * E.t) list;
  c_flags : (string * E.t) list;
  c_writes : (E.t * E.t * int) list;
}

let compared_state ~(orig_img : Image.t) ~private_filter (p : A.point)
    (st : S.t) =
  let inside_orig a =
    List.exists
      (fun s ->
         Int64.compare s.Image.sec_addr a <= 0
         && Int64.compare a (Image.section_end s) < 0)
      orig_img.Image.sections
  in
  let writes =
    S.full_write_log st.S.mem
    |> List.filter (fun (addr, _, _) ->
        match addr with
        | E.Const a -> inside_orig a || not private_filter
        | _ -> true)
  in
  let want = R.add (R.union p.A.p_live p.A.p_defs) RSP in
  let regs =
    List.filter_map
      (fun r ->
         if r <> RSP && R.mem_reg want r then Some (r, S.get st r) else None)
      all_regs
  in
  let flags =
    if p.A.p_flags_live then
      List.map (fun (n, fl) -> (n, S.flag st fl))
        Machine.Semantics.
          [ ("cf", CF); ("zf", ZF); ("sf", SF); ("of", OF); ("pf", PF) ]
    else []
  in
  { c_regs = regs; c_flags = flags; c_writes = writes }

let syntactic_eq a b =
  List.length a.c_writes = List.length b.c_writes
  && List.for_all2
       (fun (r1, e1) (r2, e2) -> r1 = r2 && syn_eq e1 e2)
       a.c_regs b.c_regs
  && List.for_all2
       (fun (n1, e1) (n2, e2) -> n1 = n2 && syn_eq e1 e2)
       a.c_flags b.c_flags
  && List.for_all2
       (fun (a1, v1, n1) (a2, v2, n2) ->
          n1 = n2 && syn_eq a1 a2 && syn_eq v1 v2)
       a.c_writes b.c_writes

let n_models = 5

(* Evaluate both compared states under one input model; None = equal,
   Some what = first disagreement. *)
let eval_mismatch ~rng a b =
  let bytes = Array.init 136 (fun _ -> Util.Rng.int rng 256) in
  let input i = if i < Array.length bytes then bytes.(i) else 0 in
  let ev = E.evaluator ~input in
  if List.length a.c_writes <> List.length b.c_writes then
    Some "memory write count"
  else
    let reg_bad =
      List.find_map
        (fun ((r, e1), (_, e2)) ->
           if ev e1 <> ev e2 then Some (X86.Pp.reg_name r) else None)
        (List.combine a.c_regs b.c_regs)
    in
    let flag_bad () =
      List.find_map
        (fun ((n, e1), (_, e2)) -> if ev e1 <> ev e2 then Some n else None)
        (List.combine a.c_flags b.c_flags)
    in
    let write_bad () =
      List.find_map
        (fun ((a1, v1, n1), (a2, v2, n2)) ->
           if n1 <> n2 then Some "memory write size"
           else if ev a1 <> ev a2 then Some "memory write address"
           else if ev v1 <> ev v2 then Some "memory write value"
           else None)
        (List.combine a.c_writes b.c_writes)
    in
    match reg_bad with
    | Some r -> Some ("register " ^ r)
    | None -> (
        match flag_bad () with
        | Some f -> Some ("flag " ^ f)
        | None -> write_bad ())

(* --- per-region validation ------------------------------------------------- *)

let max_chain_steps = 4096

(* Once the lowered instruction stores through a symbolic base register,
   every later concrete-address read goes through the write log, and even
   the next gadget's ret pops a [Load] instead of a constant.  Chain and pool pages
   are never the target of program stores (the rewriter keeps them
   disjoint from program data; W^X in spirit), so a control-transfer
   target loaded from a concrete chain address can be resolved against the
   image bytes — unless some *concrete-addressed* write in the log
   actually overlaps it, in which case we give up rather than read stale
   bytes. *)
let resolve_ctrl (f : A.func) e =
  match e with
  | E.Load (m, E.Const a, 8, _)
    when Int64.compare f.A.f_chain_base a <= 0
         && Int64.compare a
              (Int64.add f.A.f_chain_base (Int64.of_int f.A.f_chain_len))
            < 0 ->
    let overlaps =
      List.exists
        (fun (wa, _, wn) ->
           match wa with
           | E.Const w ->
             Int64.compare w (Int64.add a 8L) < 0
             && Int64.compare a (Int64.add w (Int64.of_int wn)) < 0
           | _ -> false)
        m.E.writes
    in
    if overlaps then None else Some (Machine.Memory.read_u64 m.E.base a)
  | _ -> None

(* Opaque gadget dispatch: a jmp-reg whose register was recovered through
   the P1 array, so the target expression is symbolic by design.  The
   dispatch slot just consumed sits 8 bytes below the current rsp; its
   audited target is what the recovery produces (ropcheck's byte check
   already ties the stored residual to the array's ground truth), so the
   jump resolves from the layout. *)
let resolve_dispatch (f : A.func) (st : S.t) =
  match S.get st RSP with
  | E.Const rsp ->
    let off = Int64.to_int (Int64.sub rsp f.A.f_chain_base) - 8 in
    Array.fold_left
      (fun acc (o, s) ->
         match acc, s with
         | None, Ropc.Chain.S_opaque_dispatch { od_target; _ } when o = off ->
           Some od_target
         | acc, _ -> acc)
      None f.A.f_layout
  | _ -> None

(* Execute the region's chain slots: start "mid-ret" onto the first gadget
   slot and run until the pending instruction is the terminal ret that
   would pop the next region's first slot. *)
let run_chain ~mem ~decode_cache (f : A.func) (p : A.point) =
  match region_bounds p with
  | None, _ -> Error "region has no gadget slot"
  | Some (entry_off, g0), end_off ->
    let base = f.A.f_chain_base in
    let end_rsp = Int64.add base (Int64.of_int end_off) in
    let st =
      init_state mem g0 (Int64.add base (Int64.of_int (entry_off + 8)))
    in
    let rec go steps =
      if steps > max_chain_steps then Error "chain step budget exhausted"
      else
        match decode_one mem st.S.rip with
        | Some (Ret, _) when S.get st RSP = E.Const end_rsp -> Ok st
        | _ -> (
            match S.step ~model ~decode_cache st with
            | S.O_ok -> go (steps + 1)
            | S.O_branch _ -> Error "unexpected symbolic branch in chain"
            | S.O_indirect e -> (
                match resolve_ctrl f e with
                | Some v ->
                  st.S.rip <- v;
                  go (steps + 1)
                | None -> (
                    match resolve_dispatch f st with
                    | Some v ->
                      st.S.rip <- v;
                      go (steps + 1)
                    | None ->
                      Error
                        (Format.asprintf
                           "chain ret/jmp target became symbolic: %a" E.pp e)))
            | S.O_halt -> Error "chain executed hlt"
            | S.O_fault m -> Error ("chain faulted: " ^ m))
    in
    go 0

let validate_region ~orig_img ~orig_mem ~rw_mem ~decode_orig ~decode_rw
    (f : A.func) (p : A.point) (i : instr) =
  (* original side: one instruction from a non-interfering rsp *)
  let orig_st = init_state orig_mem p.A.p_addr Image.stack_top in
  match S.step ~model ~decode_cache:decode_orig orig_st with
  | S.O_branch _ | S.O_indirect _ | S.O_halt ->
    Unproven "original instruction is a control transfer"
  | S.O_fault m -> Unproven ("original instruction faulted symbolically: " ^ m)
  | S.O_ok -> (
      match run_chain ~mem:rw_mem ~decode_cache:decode_rw f p with
      | Error reason -> Unproven reason
      | Ok chain_st ->
        let a =
          compared_state ~orig_img ~private_filter:false p orig_st
        in
        let b =
          compared_state ~orig_img ~private_filter:true p chain_st
        in
        if List.length a.c_writes <> List.length b.c_writes then
          Unproven
            (Printf.sprintf
               "write-log shape differs (%d original vs %d chain writes)"
               (List.length a.c_writes) (List.length b.c_writes))
        else if syntactic_eq a b then Proven "syntactic"
        else begin
          let rng =
            Util.Rng.of_key ~seed:0
              (Printf.sprintf "transval/%s/0x%Lx" f.A.f_name p.A.p_addr)
          in
          let rec models k =
            if k = n_models then Proven "eval"
            else
              match eval_mismatch ~rng a b with
              | None -> models (k + 1)
              | Some what ->
                Unproven
                  (Printf.sprintf
                     "counterexample model %d disagrees on %s (%s)" k what
                     (X86.Pp.instr_str i))
          in
          models 0
        end)

(* --- whole-audit run ------------------------------------------------------- *)

let run ~(orig : Image.t) ~(rewritten : Image.t) (audit : A.t) : result =
  let orig_mem = Image.load orig in
  let rw_mem = Image.load rewritten in
  let decode_orig = S.Rip_tbl.create 256 in
  let regions = ref [] and skipped = ref [] and findings = ref [] in
  List.iter
    (fun (f : A.func) ->
       let decode_rw = S.Rip_tbl.create 256 in
       let record (p : A.point) ~desc verdict =
         (match verdict with
          | Unproven reason
            when String.length reason >= 14
                 && String.sub reason 0 14 = "counterexample" ->
            findings :=
              F.make ~func:f.A.f_name ~addr:p.A.p_addr "transval-mismatch"
                ("lowering is NOT equivalent: " ^ reason)
              :: !findings
          | Unproven reason ->
            findings :=
              F.make ~severity:F.Warning ~func:f.A.f_name ~addr:p.A.p_addr
                "transval-unproven" ("equivalence not proven: " ^ reason)
              :: !findings
          | Proven _ -> ());
         regions :=
           { rg_func = f.A.f_name; rg_addr = p.A.p_addr; rg_desc = desc;
             rg_verdict = verdict }
           :: !regions
       in
       List.iter
         (fun (p : A.point) ->
            if p.A.p_addr <> 0L then
              match decode_one orig_mem p.A.p_addr with
              | None ->
                findings :=
                  F.make ~func:f.A.f_name ~addr:p.A.p_addr "transval-decode"
                    "original instruction bytes do not decode"
                  :: !findings
              | Some (i, _) -> (
                  match classify i with
                  | Error reason ->
                    skipped := (f.A.f_name, p.A.p_addr, reason) :: !skipped
                  | Ok () when p.A.p_hidden <> None -> (
                      (* the translation was smuggled into a P3 predicate
                         body; the surrounding loop is input-forking and
                         stays shielded, but the payload slice itself is a
                         straight-line region we can validate on its own *)
                      match hidden_subpoint p with
                      | None ->
                        skipped :=
                          (f.A.f_name, p.A.p_addr,
                           "hidden payload region has no executable slots")
                          :: !skipped
                      | Some hp ->
                        let verdict =
                          try
                            validate_region ~orig_img:orig ~orig_mem ~rw_mem
                              ~decode_orig ~decode_rw f hp i
                          with S.Sym_fault m ->
                            Unproven ("symbolic fault: " ^ m)
                        in
                        record p ~desc:(p.A.p_desc ^ " [hidden in p3 body]")
                          verdict)
                  | Ok () when p3_shielded p ->
                    skipped :=
                      (f.A.f_name, p.A.p_addr,
                       "p3-shielded (input-dependent state-forking loop)")
                      :: !skipped
                  | Ok () when fst (region_bounds p) = None ->
                    skipped :=
                      (f.A.f_name, p.A.p_addr, "no gadget slots emitted")
                      :: !skipped
                  | Ok () ->
                    let verdict =
                      try
                        validate_region ~orig_img:orig ~orig_mem ~rw_mem
                          ~decode_orig ~decode_rw f p i
                      with S.Sym_fault m ->
                        Unproven ("symbolic fault: " ^ m)
                    in
                    record p ~desc:p.A.p_desc verdict))
         f.A.f_points)
    audit.A.a_funcs;
  let regions = List.rev !regions in
  let proven =
    List.length
      (List.filter (fun r -> match r.rg_verdict with Proven _ -> true | _ -> false)
         regions)
  in
  { tv_regions = regions;
    tv_skipped = List.rev !skipped;
    tv_proven = proven;
    tv_unproven = List.length regions - proven;
    tv_findings = List.rev !findings }

let proven_rate r =
  let total = List.length r.tv_regions in
  if total = 0 then 100.0
  else 100.0 *. float_of_int r.tv_proven /. float_of_int total

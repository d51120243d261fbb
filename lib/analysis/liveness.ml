(* Backward liveness over a CFG, tracking the 16 GPRs plus the status flags
   (Regset bit 16).  Per-instruction live-out sets drive the rewriter's
   register allocation and flag spilling: a register is live if the function
   may later read it before writing to it, ending, or making a call that may
   clobber it (§IV-B1, footnote 1). *)

module R = Regset

type t = {
  block_live_out : (int64, R.t) Hashtbl.t;
  (* live-out set per instruction address, terminators included *)
  instr_live_out : (int64, R.t) Hashtbl.t;
}

(* Registers assumed live when the function returns: result + callee-saved +
   stack registers. *)
let exit_live = R.union (R.of_list [ X86.Isa.RAX; X86.Isa.RSP ]) R.callee_saved

(* A tail jump additionally passes arguments. *)
let tail_live = R.union exit_live R.arg_regs

(* What a block's terminator reads: the calling convention's set when
   control leaves the function, else the branch instruction's own uses. *)
let term_use (b : Cfg.block) =
  match b.Cfg.b_term with
  | Cfg.T_ret -> exit_live
  | Cfg.T_tail _ -> tail_live
  | Cfg.T_hlt | Cfg.T_jmp _ | Cfg.T_fall _ | Cfg.T_jcc _ | Cfg.T_jmp_table _
  | Cfg.T_jmp_unresolved _ ->
    (match b.Cfg.b_term_instr with
     | Some ti -> ti.Cfg.uses
     | None -> R.empty)

let transfer_instr live_out (bi : Cfg.binstr) =
  R.union bi.Cfg.uses (R.diff live_out bi.Cfg.defs)

(* live-in of a block given its live-out *)
let transfer_block (b : Cfg.block) live_out =
  let live = R.union live_out (term_use b) in
  List.fold_left transfer_instr live (List.rev b.Cfg.b_instrs)

let compute (cfg : Cfg.t) : t =
  let live_in : (int64, R.t) Hashtbl.t = Hashtbl.create 16 in
  let live_out : (int64, R.t) Hashtbl.t = Hashtbl.create 16 in
  let get tbl a = Option.value (Hashtbl.find_opt tbl a) ~default:R.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
         let b = Cfg.block_exn cfg a in
         let out =
           List.fold_left
             (fun acc s -> R.union acc (get live_in s))
             R.empty (Cfg.successors b)
         in
         (* blocks with no successors keep their terminator-implied out *)
         let out =
           match b.Cfg.b_term with
           | Cfg.T_ret -> R.union out exit_live
           | Cfg.T_tail _ -> R.union out tail_live
           | Cfg.T_hlt | Cfg.T_jmp _ | Cfg.T_fall _ | Cfg.T_jcc _
           | Cfg.T_jmp_table _ -> out
           | Cfg.T_jmp_unresolved _ -> R.all
         in
         let inn = transfer_block b out in
         if inn <> get live_in a || out <> get live_out a then begin
           Hashtbl.replace live_in a inn;
           Hashtbl.replace live_out a out;
           changed := true
         end)
      (List.rev cfg.Cfg.order)
  done;
  (* per-instruction live-out *)
  let instr_live_out = Hashtbl.create 64 in
  List.iter
    (fun a ->
       let b = Cfg.block_exn cfg a in
       let out = get live_out a in
       (match b.Cfg.b_term_instr with
        | Some ti -> Hashtbl.replace instr_live_out ti.Cfg.addr out
        | None -> ());
       let live = R.union out (term_use b) in
       let _ =
         List.fold_left
           (fun live bi ->
              Hashtbl.replace instr_live_out bi.Cfg.addr live;
              transfer_instr live bi)
           live
           (List.rev b.Cfg.b_instrs)
       in
       ())
    cfg.Cfg.order;
  { block_live_out = live_out; instr_live_out }

let live_out_at t addr =
  Option.value (Hashtbl.find_opt t.instr_live_out addr) ~default:R.all

let block_live_out t addr =
  Option.value (Hashtbl.find_opt t.block_live_out addr) ~default:R.all

(* Flags live after this instruction? *)
let flags_live_after t addr = R.mem_flags (live_out_at t addr)

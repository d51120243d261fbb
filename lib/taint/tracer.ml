(* Tainted trace recorder.

   Runs one concrete path (concolically, under a fixed input) and records,
   per executed instruction, the concrete locations it read and wrote
   (registers, flags, memory bytes) and whether its control decision
   depends on the input.  The locations come from stepping the instruction
   through [Machine.Semantics.Make] over a recording wrapper of the
   symbolic machine, so they are exactly the ones the step touched.  This
   is the input format of the TDS simplifier. *)

open X86.Isa
module E = Symex.Expr
module SS = Symex.Sym_state

type loc =
  | L_reg of reg
  | L_flags
  | L_mem of int64            (* byte address *)

type entry = {
  e_rip : int64;
  e_instr : instr;
  e_reads : loc list;
  e_writes : loc list;
  e_branch_tainted : bool;    (* control decision depends on the input *)
}

let is_control_instr (i : instr) =
  match i with
  | Jmp _ | Jcc _ | Ret | Call _ | Hlt -> true
  | Mov _ | Movzx _ | Movsx _ | Lea _ | Push _ | Pop _ | Alu _ | Unary _
  | Imul2 _ | MulDiv _ | Shift _ | Cmov _ | Setcc _ | Leave | Xchg _ | Nop
  | Lahf | Sahf -> false

type trace = {
  entries : entry list;       (* program order *)
  result : E.t;               (* final RAX *)
  halted : bool;
}

(* The symbolic machine, noting every location one step touches.  Memory
   bytes are placed by the address's value under the trace's input.  A
   read of a location the step already wrote sees the step's own value,
   so it is not a read of the state before it and is not noted. *)
module Recording = struct
  include (
    SS.Symbolic : module type of SS.Symbolic with type t := SS.Symbolic.t)

  type t = {
    sym : SS.Symbolic.t;
    ev : E.t -> int64;
    mutable reads : loc list;
    mutable writes : loc list;
  }

  let note_read s l =
    if not (List.mem l s.writes || List.mem l s.reads) then
      s.reads <- l :: s.reads

  let note_write s l =
    if not (List.mem l s.writes) then s.writes <- l :: s.writes

  let bytes s note a n =
    let a = s.ev a in
    for k = 0 to n - 1 do note s (L_mem (Int64.add a (Int64.of_int k))) done

  let get s r = note_read s (L_reg r); SS.Symbolic.get s.sym r
  let set s r v = note_write s (L_reg r); SS.Symbolic.set s.sym r v
  let get_flag s fl = note_read s L_flags; SS.Symbolic.get_flag s.sym fl
  let set_flag s fl v = note_write s L_flags; SS.Symbolic.set_flag s.sym fl v
  let load s a n = bytes s note_read a n; SS.Symbolic.load s.sym a n
  let store s a n v = bytes s note_write a n; SS.Symbolic.store s.sym a n v
  let divide s = SS.Symbolic.divide s.sym
  let rip s = SS.Symbolic.rip s.sym
  let halt s = SS.Symbolic.halt s.sym
  let jump s = SS.Symbolic.jump s.sym
  let branch s = SS.Symbolic.branch s.sym
end

module Step = Machine.Semantics.Make (Recording)

(* Record the trace of [func] on concrete [input] bytes, with RDI symbolic so
   taint is tracked exactly like the concolic engine does. *)
let record ?(fuel = 2_000_000) (img : Image.t) ~func ~n_inputs ~(input : int array) =
  let tgt = { Symex.Engine.img; func; n_inputs } in
  let budget = { Symex.Engine.default_budget with path_fuel = fuel } in
  let ctx =
    Symex.Engine.make_ctx ~goal:Symex.Engine.G_coverage ~budget tgt
  in
  let st = Symex.Engine.initial_state ctx in
  let w = ref input in
  let model = Symex.Engine.model_for ctx w in
  let ev = E.evaluator ~input:(Symex.Solver.input_of_model input) in
  let entries = ref [] in
  let halted = ref false in
  let decode_cache = SS.Rip_tbl.create 512 in
  let rec go n =
    if n <= 0 then ()
    else
      match SS.fetch decode_cache st.SS.mem.SS.base st.SS.rip with
      | None -> ()
      | Some (i, len) ->
        let rip = st.SS.rip in
        let r =
          { Recording.sym = { SS.Symbolic.model; st }; ev; reads = [];
            writes = [] }
        in
        st.SS.concretizations <- [];
        st.SS.rip <- Int64.add rip (Int64.of_int len);
        st.SS.steps <- st.SS.steps + 1;
        let entry bt =
          { e_rip = rip; e_instr = i; e_reads = List.rev r.Recording.reads;
            e_writes = List.rev r.Recording.writes; e_branch_tainted = bt }
        in
        (match Step.exec r i with
         | exception SS.Sym_fault _ -> ()
         | SS.O_ok ->
           (* a control transfer through an input-tainted pointer is an
              implicit control dependency the simplifier must keep; tainted
              *data* addresses are per-trace constants and fold away *)
           let bt =
             is_control_instr i
             && List.exists (fun (e, _) -> E.depends_on_input e)
                  st.SS.concretizations
           in
           entries := entry bt :: !entries;
           go (n - 1)
         | SS.O_halt ->
           halted := true;
           entries := entry false :: !entries
         | SS.O_fault _ -> ()
         | SS.O_branch (cond, taken, fall) ->
           let v = ev cond <> 0L in
           let bt = E.depends_on_input cond in
           SS.constrain st cond v;
           st.SS.rip <- (if v then taken else fall);
           entries := entry bt :: !entries;
           go (n - 1)
         | SS.O_indirect target ->
           (* an indirect target is a per-trace constant: foldable dispatch,
              except when the loaded value itself is input-derived through
              the P1 array (fake control dependencies, §V-C) *)
           let v = ev target in
           let bt =
             E.depends_on_input target
             || List.exists (fun (e, _) -> E.depends_on_input e)
                  st.SS.concretizations
           in
           SS.constrain st (E.bin E.Eq target (E.Const v)) true;
           st.SS.rip <- v;
           entries := entry bt :: !entries;
           go (n - 1))
  in
  go fuel;
  { entries = List.rev !entries;
    result = SS.get st X86.Isa.RAX;
    halted = !halted }

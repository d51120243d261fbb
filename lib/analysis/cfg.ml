(* CFG reconstruction from machine code (the Ghidra/angr/radare2 stand-in,
   §IV-B1).  Recursive traversal from the function entry, with a jump-table
   idiom recognizer for indirect branches compiled from dense switches.

   The recognized dispatch pattern (emitted by minic's codegen and typical of
   gcc output) is:

       [sub r, kmin]
       cmp r, n
       ja  default
       lea t, [table]
       mov r, [t + r*8]
       jmp r

   Table entries are absolute code addresses read from the image. *)

open X86.Isa

(* [uses]/[defs] are the instruction's def/use sets (Reguse.def_use),
   computed once when the CFG is built. *)
type binstr = {
  addr : int64;
  instr : instr;
  len : int;
  uses : Regset.t;
  defs : Regset.t;
}

let next_addr bi = Int64.add bi.addr (Int64.of_int bi.len)

type terminator =
  | T_ret
  | T_hlt
  | T_jmp of int64                      (* direct jump inside the function *)
  | T_tail of int64                     (* direct jump outside the function *)
  | T_jcc of cc * int64 * int64         (* taken target, fall-through *)
  | T_fall of int64                     (* block split; no branch *)
  | T_jmp_table of {
      jump_reg : reg;
      table_addr : int64;
      entries : int64 list;             (* target per table slot *)
      site : int64;                     (* address of the jmp itself *)
    }
  | T_jmp_unresolved of operand         (* CFG reconstruction failure *)

type block = {
  b_addr : int64;
  b_instrs : binstr list;               (* excludes the terminator instr *)
  b_term : terminator;
  b_term_instr : binstr option;         (* the branch/ret instruction *)
}

type t = {
  entry : int64;
  bounds : int64 * int64;               (* [lo, hi) of the function body *)
  blocks : (int64, block) Hashtbl.t;
  order : int64 list;                   (* blocks in address order *)
  failed : bool;                        (* an indirect jump was unresolved *)
}

exception Analysis_error of string

let in_bounds (lo, hi) a = Int64.compare lo a <= 0 && Int64.compare a hi < 0

(* --- instruction-level traversal --------------------------------------- *)

(* [fetch addr] decodes one instruction at [addr]; [read64] reads image data
   (for jump tables). *)
let decode_function ~fetch ~read64 ~entry ~bounds =
  let instrs : (int64, binstr) Hashtbl.t = Hashtbl.create 64 in
  let leaders : (int64, unit) Hashtbl.t = Hashtbl.create 16 in
  let tables : (int64, reg * int64 * int64 list) Hashtbl.t = Hashtbl.create 4 in
  let unresolved = ref false in
  let mark_leader a = Hashtbl.replace leaders a () in
  mark_leader entry;
  (* linear history per traversal run, for the table pattern *)
  let try_resolve_table history jump_reg =
    (* find: mov jr, [t + ir*8]; lea t, [T]; cmp ir, n going backwards *)
    let rec find_mov = function
      | [] -> None
      | bi :: rest ->
        (match bi.instr with
         | Mov (W64, Reg jr, Mem { base = Some tb; index = Some (ir, 8); disp = 0L })
           when jr = jump_reg -> Some (tb, ir, rest)
         | _ -> find_mov rest)
    in
    let rec find_lea tb = function
      | [] -> None
      | bi :: rest ->
        (match bi.instr with
         | Lea (r, { base = None; index = None; disp }) when r = tb ->
           Some (disp, rest)
         | _ -> find_lea tb rest)
    in
    let rec find_cmp ir = function
      | [] -> None
      | bi :: rest ->
        (match bi.instr with
         | Alu (Cmp, W64, Reg r, Imm n) when r = ir -> Some (Int64.to_int n)
         | _ -> find_cmp ir rest)
    in
    match find_mov history with
    | None -> None
    | Some (tb, ir, rest) ->
      (match find_lea tb rest with
       | None -> None
       | Some (taddr, rest') ->
         (match find_cmp ir rest' with
          | None -> None
          | Some n ->
            let entries =
              List.init (n + 1) (fun i ->
                  match read64 (Int64.add taddr (Int64.of_int (8 * i))) with
                  | Some v -> v
                  | None -> raise Exit)
            in
            (match List.for_all (in_bounds bounds) entries with
             | true -> Some (taddr, entries)
             | false -> None
             | exception Exit -> None)))
  in
  let worklist = Queue.create () in
  Queue.add entry worklist;
  while not (Queue.is_empty worklist) do
    let start = Queue.pop worklist in
    if not (Hashtbl.mem instrs start) && in_bounds bounds start then begin
      (* decode a linear run from [start] *)
      let rec go addr history =
        if Hashtbl.mem instrs addr || not (in_bounds bounds addr) then ()
        else
          match fetch addr with
          | None -> raise (Analysis_error (Printf.sprintf "undecodable at 0x%Lx" addr))
          | Some (instr, len) ->
            let uses, defs = Reguse.def_use instr in
            let bi = { addr; instr; len; uses; defs } in
            Hashtbl.replace instrs addr bi;
            let next = next_addr bi in
            (match instr with
             | Ret | Hlt -> ()
             | Jmp (J_rel d) ->
               let target = Int64.add next (Int64.of_int d) in
               if in_bounds bounds target then begin
                 mark_leader target;
                 Queue.add target worklist
               end
             | Jmp (J_op (Reg r)) ->
               (match try_resolve_table (bi :: history) r with
                | Some (taddr, entries) ->
                  Hashtbl.replace tables addr (r, taddr, entries);
                  List.iter
                    (fun t -> mark_leader t; Queue.add t worklist)
                    entries
                | None -> unresolved := true)
             | Jmp (J_op _) -> unresolved := true
             | Jcc (_, d) ->
               let target = Int64.add next (Int64.of_int d) in
               if in_bounds bounds target then begin
                 mark_leader target;
                 Queue.add target worklist
               end;
               mark_leader next;
               go next (bi :: history)
             | Mov _ | Movzx _ | Movsx _ | Lea _ | Push _ | Pop _ | Alu _
             | Unary _ | Imul2 _ | MulDiv _ | Shift _ | Cmov _ | Setcc _
             | Call _ | Leave | Xchg _ | Nop | Lahf | Sahf ->
               go next (bi :: history))
      in
      go start []
    end
  done;
  (instrs, leaders, tables, !unresolved)

(* --- block formation ----------------------------------------------------- *)

let build ~fetch ~read64 ~entry ~size =
  let bounds = (entry, Int64.add entry (Int64.of_int size)) in
  let instrs, leaders, tables, failed =
    decode_function ~fetch ~read64 ~entry ~bounds
  in
  let blocks = Hashtbl.create 16 in
  let is_leader a = Hashtbl.mem leaders a in
  Hashtbl.iter
    (fun addr _ -> if is_leader addr then begin
        (* collect until terminator or next leader *)
        let rec collect a acc =
          match Hashtbl.find_opt instrs a with
          | None ->
            (* ran past decoded region: treat as fall into nothing *)
            (List.rev acc, T_fall a, None)
          | Some bi ->
            let next = next_addr bi in
            (match bi.instr with
             | Ret -> (List.rev acc, T_ret, Some bi)
             | Hlt -> (List.rev acc, T_hlt, Some bi)
             | Jmp (J_rel d) ->
               let t = Int64.add next (Int64.of_int d) in
               if in_bounds bounds t then (List.rev acc, T_jmp t, Some bi)
               else (List.rev acc, T_tail t, Some bi)
             | Jmp (J_op op) ->
               (match Hashtbl.find_opt tables bi.addr with
                | Some (r, taddr, entries) ->
                  (List.rev acc,
                   T_jmp_table
                     { jump_reg = r; table_addr = taddr; entries; site = bi.addr },
                   Some bi)
                | None -> (List.rev acc, T_jmp_unresolved op, Some bi))
             | Jcc (cc, d) ->
               let t = Int64.add next (Int64.of_int d) in
               (List.rev acc, T_jcc (cc, t, next), Some bi)
             | Mov _ | Movzx _ | Movsx _ | Lea _ | Push _ | Pop _ | Alu _
             | Unary _ | Imul2 _ | MulDiv _ | Shift _ | Cmov _ | Setcc _
             | Call _ | Leave | Xchg _ | Nop | Lahf | Sahf ->
               if is_leader next && next <> addr then
                 (List.rev (bi :: acc), T_fall next, None)
               else collect next (bi :: acc))
        in
        let body, term, term_instr = collect addr [] in
        Hashtbl.replace blocks addr
          { b_addr = addr; b_instrs = body; b_term = term; b_term_instr = term_instr }
      end)
    instrs;
  let order =
    Hashtbl.fold (fun a _ acc -> a :: acc) blocks []
    |> List.sort Int64.compare
  in
  { entry; bounds; blocks; order; failed }

let block_exn t a =
  match Hashtbl.find_opt t.blocks a with
  | Some b -> b
  | None -> raise (Analysis_error (Printf.sprintf "no block at 0x%Lx" a))

let successors (b : block) =
  match b.b_term with
  | T_ret | T_hlt | T_tail _ | T_jmp_unresolved _ -> []
  | T_jmp t | T_fall t -> [ t ]
  | T_jcc (_, t, f) -> [ t; f ]
  | T_jmp_table { entries; _ } -> List.sort_uniq Int64.compare entries

(* All instructions of a block including the terminator. *)
let all_instrs (b : block) =
  match b.b_term_instr with
  | Some ti -> b.b_instrs @ [ ti ]
  | None -> b.b_instrs

(* Build a CFG for [fname] in [img]. *)
let of_image (img : Image.t) fname =
  let sym =
    match Image.find_symbol img fname with
    | Some s -> s
    | None -> raise (Analysis_error ("no such function: " ^ fname))
  in
  let text = Image.section_exn img ".text" in
  let buf = text.Image.sec_data in
  let fetch addr =
    let off = Int64.to_int (Int64.sub addr text.Image.sec_addr) in
    if off < 0 || off >= Bytes.length buf then None
    else X86.Decode.decode buf off
  in
  let read64 addr =
    let off = Int64.to_int (Int64.sub addr text.Image.sec_addr) in
    if off < 0 || off + 8 > Bytes.length buf then None
    else begin
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get buf (off + i))))
      done;
      Some !v
    end
  in
  build ~fetch ~read64 ~entry:sym.Image.sym_addr ~size:sym.Image.sym_size

let pp fmt t =
  List.iter
    (fun a ->
       let b = block_exn t a in
       Format.fprintf fmt "block 0x%Lx:@\n" a;
       List.iter
         (fun bi -> Format.fprintf fmt "  %Lx: %s@\n" bi.addr (X86.Pp.instr_str bi.instr))
         (all_instrs b);
       let succs = successors b |> List.map (Printf.sprintf "0x%Lx") in
       Format.fprintf fmt "  -> [%s]@\n" (String.concat " " succs))
    t.order

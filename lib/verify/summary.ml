(* Gadget transfer summaries (verification pass 1).

   Each gadget body is abstract-interpreted once into a summary: which
   registers it writes, how it moves RSP through the chain (the ordered
   stack events), what it does to the status flags, and how control leaves
   it.  Register writes and flag effects come from Analysis.Reguse, which
   derives them from the machine's semantics.  The chain walk (pass 2)
   replays these summaries against the materialized slot layout; the
   clobber pass (pass 3) intersects the writes with liveness. *)

open X86.Isa
module R = Analysis.Regset

(* How one body instruction moves RSP relative to the chain, in execution
   order.  The final ret/jop is the [ending], not an event. *)
type stack_ev =
  | Ev_pop            (* consumes the next 8-byte chain slot *)
  | Ev_skip of int    (* rsp += imm: skips a known number of junk bytes *)
  | Ev_branch         (* rsp += reg: chain-relative branch (variable addend) *)
  | Ev_stop           (* rsp replaced wholesale (stack switch, leave, push) *)

type ending =
  | End_ret           (* ret: transfers to the next chain slot *)
  | End_jop           (* jmp reg: leaves the chain *)
  | End_switch_call   (* xchg rsp, [mem]; jmp reg: the stack-switch call
                         idiom (§IV-B2).  RSP is parked pointing at the next
                         chain slot and restored there by the funcret gadget,
                         so the chain resumes right after this gadget's slot. *)
  | End_halt
  | End_fall          (* no terminal instruction: control falls off the body *)

type t = {
  writes : R.t;           (* GPR writes; RSP tracked via events instead *)
  flags_written : bool;
  flags_dirty : bool;     (* flags differ from entry once the gadget ends
                             (a trailing sahf counts as a restore) *)
  events : stack_ev list; (* execution order *)
  ending : ending;
}

let stack_ev_of = function
  | Pop _ -> Some Ev_pop
  | Push _ -> Some Ev_stop            (* writes below RSP: never chain-safe *)
  | Alu (Add, W64, Reg RSP, Imm k) -> Some (Ev_skip (Int64.to_int k))
  | Alu (Sub, W64, Reg RSP, Imm k) -> Some (Ev_skip (- Int64.to_int k))
  | Alu (_, W64, Reg RSP, Reg _) -> Some Ev_branch
  | Alu (_, _, Reg RSP, _) -> Some Ev_stop
  | Mov (_, Reg RSP, _) -> Some Ev_stop
  | Xchg (_, Reg RSP, _) | Xchg (_, _, Reg RSP) -> Some Ev_stop
  | Leave -> Some Ev_stop
  | Jmp (J_rel _) | Jcc _ | Call _ -> Some Ev_stop  (* native transfer *)
  | _ -> None

(* RSP moves are events; the flags have their own fields *)
let not_writes = R.add_flags (R.of_reg RSP)

let of_instrs (instrs : instr list) : t =
  let writes = ref R.empty in
  let flags_written = ref false and flags_dirty = ref false in
  let events = ref [] in
  let ending = ref End_fall in
  let rec go = function
    | [] -> ()
    | [ (Xchg (_, Reg RSP, Mem _) | Xchg (_, Mem _, Reg RSP)); Jmp (J_op _) ] ->
      ending := End_switch_call
    | [ Ret ] -> ending := End_ret
    | [ Jmp (J_op _) ] -> ending := End_jop
    | [ Hlt ] -> ending := End_halt
    | i :: rest ->
      let e = Analysis.Reguse.effects i in
      writes := R.union !writes (R.diff e.Analysis.Reguse.defs not_writes);
      if e.Analysis.Reguse.flags_written then begin
        flags_written := true;
        (* sahf restores the spilled flag state; anything else pollutes it *)
        flags_dirty := i <> Sahf
      end;
      (match stack_ev_of i with
       | Some ev -> events := ev :: !events
       | None -> ());
      go rest
  in
  go instrs;
  { writes = !writes; flags_written = !flags_written;
    flags_dirty = !flags_dirty; events = List.rev !events; ending = !ending }

let ending_str = function
  | End_ret -> "ret"
  | End_jop -> "jmp-reg"
  | End_switch_call -> "switch-call"
  | End_halt -> "hlt"
  | End_fall -> "fallthrough"

(* Taint-driven simplification (the Yadegari et al. stand-in, §III-B).

   Operates on a recorded tainted trace: semantics-preserving backward
   simplification removes instructions that contribute neither to the
   program output nor to any input-tainted control decision.  The key
   restriction reproduced from the original system: flows through
   input-tainted conditional jumps must be preserved (no constant
   propagation across them), which is precisely the property P3 exploits to
   survive (§V-C).

   Untainted control transfers (the ROP ret dispatching, constant-folded VM
   dispatch) are simplified away, like TDS untangling "the control flow of
   an obfuscation method apart from that of the original program". *)

type result = {
  total : int;                 (* trace length *)
  kept : Tracer.entry list;    (* simplified trace, program order *)
  n_kept : int;
  n_removed : int;
  tainted_branches : int;      (* input-tainted control decisions (kept) *)
  kept_sites : int;            (* distinct code addresses in the result *)
}

module Locs = struct
  type t = (Tracer.loc, unit) Hashtbl.t

  let create () : t = Hashtbl.create 256
  let mem (t : t) l = Hashtbl.mem t l
  let add (t : t) l = Hashtbl.replace t l ()
  let remove (t : t) l = Hashtbl.remove t l
end

(* The stack pointer is the ROP dispatching register: TDS reconstructs
   control flow separately and strips RSP bookkeeping from the semantic
   slice (like the original removes "the ret sequences"). *)
let semantic_loc = function
  | Tracer.L_reg X86.Isa.RSP -> false
  | Tracer.L_reg _ | Tracer.L_flags | Tracer.L_mem _ -> true

let simplify (trace : Tracer.trace) : result =
  Obs.Trace.with_span "taint.simplify" @@ fun () ->
  let entries = Array.of_list trace.Tracer.entries in
  let n = Array.length entries in
  let keep = Array.make n false in
  let live = Locs.create () in
  (* the program output: RAX at the end *)
  Locs.add live (Tracer.L_reg X86.Isa.RAX);
  let tainted_branches = ref 0 in
  for i = n - 1 downto 0 do
    let e = entries.(i) in
    let defines_live =
      List.exists
        (fun l -> semantic_loc l && Locs.mem live l)
        e.Tracer.e_writes
    in
    let control_kept =
      Tracer.is_control_instr e.Tracer.e_instr && e.Tracer.e_branch_tainted
    in
    if control_kept then incr tainted_branches;
    if defines_live || control_kept then begin
      keep.(i) <- true;
      (* strong update only when the write set is unambiguous *)
      List.iter (Locs.remove live) e.Tracer.e_writes;
      List.iter
        (fun l -> if semantic_loc l then Locs.add live l)
        e.Tracer.e_reads
    end
  done;
  let kept = ref [] in
  let sites = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    if keep.(i) then begin
      kept := entries.(i) :: !kept;
      Hashtbl.replace sites entries.(i).Tracer.e_rip ()
    end
  done;
  let n_kept = List.length !kept in
  if Obs.Metrics.enabled () then begin
    let c = Obs.Metrics.count in
    c "taint.traces" 1;
    c "taint.trace_entries" n;
    c "taint.kept" n_kept;
    c "taint.removed" (n - n_kept);
    c "taint.tainted_branches" !tainted_branches;
    Obs.Metrics.observe_named "taint.kept_sites" (Hashtbl.length sites)
  end;
  { total = n;
    kept = !kept;
    n_kept;
    n_removed = n - n_kept;
    tainted_branches = !tainted_branches;
    kept_sites = Hashtbl.length sites }

(* Convenience: record and simplify in one step. *)
let run ?(fuel = 2_000_000) img ~func ~n_inputs ~input =
  simplify
    (Obs.Trace.with_span ~args:[ ("func", func) ] "taint.record" (fun () ->
         Tracer.record ~fuel img ~func ~n_inputs ~input))

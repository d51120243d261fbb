(* Four-way differential oracle.

   A generated case is executed under up to four backends:

     1. the mini-C reference interpreter (ground truth),
     2. the compiled program on the machine emulator (codegen + emulator),
     3. the ROP-rewritten binary (codegen + rewriter + emulator),
     4. the VM-virtualized program (vmobf + codegen + emulator),

   and the observable behaviors are compared: the 64-bit return value, the
   final contents of the writable global buffer, and the termination class
   (clean return / fault / fuel exhaustion).  Fault *messages* are not
   compared — addresses and frame layouts legitimately differ across
   backends — only the class is.

   The rewriter declining a function (F_cfg, F_register_pressure, ...) is a
   statistic, not a discrepancy: a failed function keeps its native body,
   which is still semantically the program.  Obfuscator *crashes* at build
   time, on the other hand, are reported as Build_error discrepancies —
   the obfuscators claim to support the whole mini-C surface the generator
   emits. *)

type outcome =
  | Ret of { rax : int64; mem : string }  (* clean return + gbuf snapshot *)
  | Fault of string                       (* fault class; message is FYI *)
  | Timeout                               (* fuel / step budget exhausted *)
  | Build_error of string                 (* obfuscation pipeline crashed *)
  | Engine_split of string                (* fast and ref engines disagreed *)

type backend = Interp | Native | Rop | Vm

let backend_name = function
  | Interp -> "interp" | Native -> "native" | Rop -> "rop" | Vm -> "vm"

let outcome_str = function
  | Ret { rax; mem } ->
    Printf.sprintf "ret rax=%Ld gbuf=%s" rax (Digest.to_hex (Digest.string mem))
  | Fault m -> Printf.sprintf "fault (%s)" m
  | Timeout -> "timeout"
  | Build_error m -> Printf.sprintf "build error (%s)" m
  | Engine_split m -> Printf.sprintf "engine split (%s)" m

(* Coarse class of an outcome, used to pin a shrink to the original failure
   mode (a shrink that wanders from "wrong rax" to "build error" has found a
   different bug, not a smaller instance of the same one). *)
let outcome_class = function
  | Ret _ -> "ret" | Fault _ -> "fault" | Timeout -> "timeout"
  | Build_error _ -> "build-error" | Engine_split _ -> "engine-split"

(* Equality up to fault message.  An engine split equals nothing, itself
   included: the two execution engines disagreeing on one leg is always a
   discrepancy, whatever the other legs did. *)
let same_outcome a b =
  match (a, b) with
  | Ret a, Ret b -> a.rax = b.rax && a.mem = b.mem
  | Fault _, Fault _ -> true
  | Timeout, Timeout -> true
  | Build_error _, Build_error _ -> true
  | Engine_split _, _ | _, Engine_split _ -> false
  | _ -> false

(* Which execution engine runs the machine legs.  [E_both] is the
   cross-engine oracle: every leg runs under the fast block-translating
   engine AND the reference stepper, and any observable divergence —
   termination class, fault message, retired step count, any of the 16
   registers, rip or the five flags at exit, global buffer — is reported
   as an [Engine_split] discrepancy. *)
type engine_mode = E_fast | E_ref | E_both

let engine_mode_name = function
  | E_fast -> "fast" | E_ref -> "ref" | E_both -> "both"

let engine_mode_of_string = function
  | "fast" -> Some E_fast | "ref" -> Some E_ref | "both" -> Some E_both
  | _ -> None

type config = {
  name : string;
  rop : Ropc.Config.t option;                  (* None: skip the ROP leg *)
  vm : (int * Vmobf.implicit_layers) option;   (* None: skip the VM leg *)
  verify : bool;    (* run the static chain verifier on the ROP leg; an
                       error-severity diagnostic fails the build like an
                       obfuscator crash would *)
  engine : engine_mode;
  interp_fuel : int;
  native_fuel : int;
  rop_fuel : int;
  vm_fuel : int;
}

(* Fuel budgets are sized from measured maxima over healthy generated cases
   (native ~5k steps, rop ~540k, 1-layer vm ~140k): generous enough that no
   legitimate case comes near them, tight enough that a diverging case —
   which burns its whole budget — costs fractions of a second, not minutes.
   Deep-VM presets scale vm_fuel up for the per-layer amplification. *)
let default_config =
  { name = "default";
    rop = Some (Ropc.Config.rop_k ~seed:1 1.0);
    vm = Some (1, Vmobf.Imp_none);
    verify = false;
    engine = E_fast;
    interp_fuel = 2_000_000;
    native_fuel = 2_000_000;
    rop_fuel = 20_000_000;
    vm_fuel = 30_000_000 }

(* Named presets selectable from the CLI; the obfuscation legs follow the
   Table I/II terminology of the harness. *)
let configs =
  [ default_config;
    { default_config with name = "rop0.25";
      rop = Some (Ropc.Config.rop_k ~seed:1 0.25) };
    { default_config with name = "rop-p2";
      rop = Some (Ropc.Config.rop_k ~seed:1 ~p2:true 1.0) };
    { default_config with name = "rop-confusion";
      rop = Some (Ropc.Config.rop_k ~seed:1 ~confusion:true 1.0) };
    { default_config with name = "rop-verified"; verify = true };
    (* ROPfuscator layer presets: each layer alone, stacked, and stacked
       with per-function config; the -verified variant adds the static
       chain verifier to the leg *)
    { default_config with name = "rop-opaque";
      rop = Some (Ropc.Config.rop_k ~seed:1 ~opaque:true 1.0) };
    { default_config with name = "rop-hiding";
      rop = Some (Ropc.Config.rop_k ~seed:1 ~hiding:true 1.0) };
    { default_config with name = "rop-layered";
      rop = Some (Ropc.Config.rop_k ~seed:1 ~opaque:true ~hiding:true 1.0) };
    { default_config with name = "rop-perfunction";
      rop =
        Some (Ropc.Config.rop_k ~seed:1 ~opaque:true ~hiding:true ~pf:true 1.0) };
    { default_config with name = "rop-layered-verified";
      rop = Some (Ropc.Config.rop_k ~seed:1 ~opaque:true ~hiding:true 1.0);
      verify = true };
    { default_config with name = "2vm"; vm = Some (2, Vmobf.Imp_none);
      vm_fuel = 200_000_000 };
    { default_config with name = "2vm-implast";
      vm = Some (2, Vmobf.Imp_last); vm_fuel = 400_000_000 };
    { default_config with name = "1vm-impall";
      vm = Some (1, Vmobf.Imp_all); vm_fuel = 100_000_000 };
    { default_config with name = "native-only"; rop = None; vm = None } ]

let find_config name =
  List.find_opt (fun c -> c.name = name) configs

let config_names () = List.map (fun c -> c.name) configs

(* --- preparation ---------------------------------------------------------- *)

(* Per-case build products, shared across the case's input vectors. *)
type prepared = {
  case : Gen.t;
  native_img : Image.t;
  rop_img : (Image.t * bool, string) result option;
                                  (* bool: was [f] actually rewritten? *)
  vm_img : (Image.t, string) result option;
  gadget_uses : int;              (* A of Table III, 0 if rop leg off/failed *)
  gadget_unique : int;            (* B of Table III *)
}

let prepare (cfg : config) (case : Gen.t) : prepared =
  let native_img = Minic.Codegen.compile case.Gen.prog in
  let rop_img, gadget_uses, gadget_unique =
    match cfg.rop with
    | None -> (None, 0, 0)
    | Some rc ->
      (match
         Ropc.Rewriter.rewrite native_img ~functions:[ case.Gen.fname ]
           ~config:rc
       with
       | r ->
         let rewritten =
           match List.assoc_opt case.Gen.fname r.Ropc.Rewriter.funcs with
           | Some (Ok _) -> true
           | Some (Error _) | None -> false
         in
         let verify_err =
           if not cfg.verify then None
           else
             match Verify.Diag.errors (Verify.Check.check r) with
             | [] -> None
             | d :: _ as ds ->
               Some
                 (Printf.sprintf "static verification: %d error(s), first: %s"
                    (List.length ds) (Verify.Diag.render d))
         in
         ((match verify_err with
           | Some msg -> Some (Error msg)
           | None -> Some (Ok (r.Ropc.Rewriter.image, rewritten))),
          r.Ropc.Rewriter.total_gadget_uses, r.Ropc.Rewriter.unique_gadgets)
       | exception e -> (Some (Error (Printexc.to_string e)), 0, 0))
  in
  let vm_img =
    match cfg.vm with
    | None -> None
    | Some (layers, implicit) ->
      (match
         Vmobf.layered ~implicit ~layers ~seed:(case.Gen.seed + case.Gen.index)
           case.Gen.prog case.Gen.fname
       with
       | prog -> Some (Ok (Minic.Codegen.compile prog))
       | exception e -> Some (Error (Printexc.to_string e)))
  in
  { case; native_img; rop_img; vm_img; gadget_uses; gadget_unique }

(* --- execution ------------------------------------------------------------ *)

let out_of_fuel_msg = "interpreter out of fuel"

let run_interp (cfg : config) (case : Gen.t) args : outcome =
  match
    Minic.Interp.run_state ~fuel:cfg.interp_fuel case.Gen.prog case.Gen.fname
      args
  with
  | rax, st ->
    let mem =
      match Minic.Interp.global_addr st Gen.gbuf with
      | Some addr ->
        Machine.Memory.read_string st.Minic.Interp.mem addr Gen.gbuf_size
      | None -> ""
    in
    Ret { rax; mem }
  | exception Minic.Interp.Runtime_error m when m = out_of_fuel_msg -> Timeout
  | exception Minic.Interp.Runtime_error m -> Fault m
  (* shrunk candidates can dereference arbitrary addresses; an unmapped
     access raises Memory.Fault straight out of the interpreter *)
  | exception Machine.Memory.Fault (_, m) -> Fault m

let gbuf_snapshot img (r : Runner.result) =
  match Image.find_symbol img Gen.gbuf with
  | Some sym ->
    Machine.Memory.read_string r.Runner.cpu.Machine.Cpu.mem
      sym.Image.sym_addr Gen.gbuf_size
  | None -> ""

let outcome_of_result img (r : Runner.result) : outcome =
  match r.Runner.status with
  | Machine.Exec.Halted -> Ret { rax = r.Runner.rax; mem = gbuf_snapshot img r }
  | Machine.Exec.Fault m -> Fault m
  | Machine.Exec.Out_of_fuel -> Timeout

(* The first of the 16 registers, rip and the five flags on which the fast
   engine's exit state [f] differs from the reference's [r]. *)
let state_diff (f : Machine.Cpu.t) (r : Machine.Cpu.t) =
  let module C = Machine.Cpu in
  let v64 name a b =
    if a = b then None
    else Some (Printf.sprintf "%s: fast=%Ld ref=%Ld" name a b)
  in
  let flag name a b =
    if a = b then None
    else Some (Printf.sprintf "%s: fast=%b ref=%b" name a b)
  in
  List.find_map Fun.id
    (List.map
       (fun reg -> v64 (X86.Pp.reg_name reg) (C.get f reg) (C.get r reg))
       X86.Isa.all_regs
     @ [ v64 "rip" (C.rip f) (C.rip r);
         flag "cf" f.C.cf r.C.cf; flag "zf" f.C.zf r.C.zf;
         flag "sf" f.C.sf r.C.sf; flag "of" f.C.o_f r.C.o_f;
         flag "pf" f.C.pf r.C.pf ])

let run_machine ~fuel (cfg : config) (case : Gen.t) img args : outcome =
  match cfg.engine with
  | E_fast ->
    outcome_of_result img
      (Runner.call ~engine:Machine.Exec.Fast ~fuel img ~func:case.Gen.fname ~args)
  | E_ref ->
    outcome_of_result img
      (Runner.call ~engine:Machine.Exec.Ref ~fuel img ~func:case.Gen.fname ~args)
  | E_both ->
    (* Cross-engine oracle: the comparison is strict — identical status
       (message included), retired step count, exit state and global
       buffer — since the fast engine claims observational equivalence,
       not just same-answer. *)
    let rf =
      Runner.call ~engine:Machine.Exec.Fast ~fuel img ~func:case.Gen.fname ~args
    in
    let rr =
      Runner.call ~engine:Machine.Exec.Ref ~fuel img ~func:case.Gen.fname ~args
    in
    let sf = Format.asprintf "%a" Machine.Exec.pp_exit rf.Runner.status in
    let sr = Format.asprintf "%a" Machine.Exec.pp_exit rr.Runner.status in
    if sf <> sr then
      Engine_split (Printf.sprintf "status: fast=%s ref=%s" sf sr)
    else if rf.Runner.steps <> rr.Runner.steps then
      Engine_split
        (Printf.sprintf "steps: fast=%d ref=%d (%s)" rf.Runner.steps
           rr.Runner.steps sf)
    else
      match state_diff rf.Runner.cpu rr.Runner.cpu with
      | Some d -> Engine_split d
      | None ->
        let mf = gbuf_snapshot img rf and mr = gbuf_snapshot img rr in
        if mf <> mr then Engine_split "global buffer contents differ"
        else outcome_of_result img rf

(* Run one input vector through every configured backend. *)
let run (cfg : config) (p : prepared) args : (backend * outcome) list =
  let interp = (Interp, run_interp cfg p.case args) in
  let native =
    (Native, run_machine ~fuel:cfg.native_fuel cfg p.case p.native_img args)
  in
  let rop =
    match p.rop_img with
    | None -> []
    | Some (Error m) -> [ (Rop, Build_error m) ]
    | Some (Ok (img, _)) ->
      [ (Rop, run_machine ~fuel:cfg.rop_fuel cfg p.case img args) ]
  in
  let vm =
    match p.vm_img with
    | None -> []
    | Some (Error m) -> [ (Vm, Build_error m) ]
    | Some (Ok img) ->
      [ (Vm, run_machine ~fuel:cfg.vm_fuel cfg p.case img args) ]
  in
  (interp :: native :: rop) @ vm

(* --- diffing -------------------------------------------------------------- *)

type discrepancy = {
  d_case : Gen.t;
  d_input : int64 list;
  d_backend : backend;
  d_expected : outcome;   (* what the reference interpreter said *)
  d_got : outcome;
}

(* Check one prepared case over all of its input vectors; returns the first
   discrepancy, if any.  The interpreter outcome is the reference. *)
let check (cfg : config) (p : prepared) : discrepancy option =
  let rec over_inputs = function
    | [] -> None
    | args :: rest ->
      let outcomes = run cfg p args in
      let reference = List.assoc Interp outcomes in
      let bad =
        List.find_opt
          (fun (b, o) -> b <> Interp && not (same_outcome reference o))
          outcomes
      in
      (match bad with
       | Some (b, o) ->
         Some { d_case = p.case; d_input = args; d_backend = b;
                d_expected = reference; d_got = o }
       | None -> over_inputs rest)
  in
  over_inputs p.case.Gen.inputs

(* Convenience: generate, prepare, check. *)
let check_case (cfg : config) ~seed index : discrepancy option =
  check cfg (prepare cfg (Gen.case ~seed index))

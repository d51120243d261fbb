(* Symbolic-execution engines: the angr (SE) and S2E (DSE) stand-ins.

   Both engines drive Sym_state over a loaded image.  SE forks eagerly at
   every symbolic branch (witness-guided: each state carries a satisfying
   model, so one side of each fork is free).  DSE is generational concolic
   execution: a concrete input drives one path, branch constraints are
   negated to derive new inputs, and pending negations are scheduled with a
   CUPA-like class-uniform strategy (group by branch site, round-robin over
   groups, §VII-B). *)

module E = Expr

type goal =
  | G_secret                 (* find input making the function return 1 *)
  | G_coverage               (* touch every __cov probe *)

type budget = {
  wall_seconds : float;
  max_instrs : int;          (* total symbolic instructions *)
  max_states : int;          (* SE: states explored; DSE: paths executed *)
  solver_evals : int;        (* per solver query *)
  total_solver_evals : int;  (* across the whole run: the deterministic
                                cost cap campaign cells are bounded by *)
  path_fuel : int;           (* instructions per path *)
  indirect_limit : int;      (* values enumerated per symbolic target *)
  portfolio : bool;          (* race solver strategies instead of pipeline *)
}

let default_budget = {
  wall_seconds = 5.0;
  max_instrs = 40_000_000;
  max_states = 100_000;
  solver_evals = 60_000;
  total_solver_evals = max_int;
  path_fuel = 4_000_000;
  indirect_limit = 4;
  portfolio = false;
}

type stats = {
  mutable states : int;
  mutable instrs : int;
  mutable paths_completed : int;
  mutable timed_out : bool;
  solver : Solver.stats;
}

type result = {
  secret_input : Solver.model option;
  covered : (int, unit) Hashtbl.t;     (* probe byte offsets *)
  n_probes : int;
  time : float;
  stats : stats;
}

(* --- common setup ------------------------------------------------------------ *)

type target = {
  img : Image.t;
  func : string;
  n_inputs : int;            (* symbolic input bytes, composed into RDI *)
}

type ctx = {
  tgt : target;
  goal : goal;
  budget : budget;
  toa : bool;
  rng : Util.Rng.t;
  deadline : float;
  decode_cache : Sym_state.decode_cache;
  covered : (int, unit) Hashtbl.t;
  cov_range : (int64 * int64) option;  (* [lo, hi) of the __cov array *)
  stats : stats;
  mutable found : Solver.model option;
}

let input_expr n_inputs =
  let rec build i acc =
    if i < 0 then acc
    else
      build (i - 1)
        (E.bin E.Or (E.bin E.Shl acc (E.Const 8L)) (E.Input i))
  in
  build (n_inputs - 1) E.zero

let make_ctx ?(toa = false) ?(seed = 99) ~goal ~budget tgt =
  let cov_range =
    match Image.find_symbol tgt.img "__cov" with
    | Some s ->
      Some (s.Image.sym_addr,
            Int64.add s.Image.sym_addr (Int64.of_int s.Image.sym_size))
    | None -> None
  in
  { tgt; goal; budget; toa;
    rng = Util.Rng.create seed;
    deadline = Unix.gettimeofday () +. budget.wall_seconds;
    decode_cache = Sym_state.Rip_tbl.create 1024;
    covered = Hashtbl.create 64;
    cov_range;
    stats = { states = 0; instrs = 0; paths_completed = 0; timed_out = false;
              solver = Solver.make_stats () };
    found = None }

let out_of_time ctx = Unix.gettimeofday () > ctx.deadline

(* The stepping loops poll the wall clock before a path's first instruction
   and then every [clock_stride]th, not on every one: a DSE pass steps half
   a million symbolic instructions, and one [gettimeofday] each cost about
   4% of it.  [k] counts the instructions this path has already stepped. *)
let clock_stride = 256

let path_out_of_time ctx k =
  k land (clock_stride - 1) = 0 && out_of_time ctx

let out_of_budget ctx =
  out_of_time ctx
  || ctx.stats.instrs > ctx.budget.max_instrs
  || ctx.stats.states > ctx.budget.max_states
  || ctx.stats.solver.Solver.evals >= ctx.budget.total_solver_evals

(* Build the initial symbolic state: like Runner.setup but with a symbolic
   RDI. *)
let initial_state ctx =
  let mem = Image.load ctx.tgt.img in
  let entry = Image.symbol_addr ctx.tgt.img ctx.tgt.func in
  let st = Sym_state.create mem entry in
  let sp = Int64.sub Image.stack_top 72L in
  Machine.Memory.write_u64 mem sp Image.exit_stub_addr;
  Sym_state.set st X86.Isa.RSP (E.Const sp);
  Sym_state.set st X86.Isa.RDI (input_expr ctx.tgt.n_inputs);
  st

(* per-state witness-driven memory model; the witness is fixed for the whole
   path, so one evaluator (and its DAG cache) is shared by every
   concretization *)
let model_for ctx witness_ref =
  let ev =
    E.evaluator ~input:(fun i ->
        let w = !witness_ref in
        if i < Array.length w then w.(i) else 0)
  in
  let concretize _st e = Some (ev e) in
  let on_write addr n =
    match ctx.cov_range, addr with
    | Some (lo, hi), E.Const a
      when Int64.compare lo a <= 0 && Int64.compare a hi < 0 ->
      for k = 0 to n - 1 do
        let off = Int64.to_int (Int64.sub a lo) + k in
        if Int64.compare (Int64.add a (Int64.of_int k)) hi < 0 then
          Hashtbl.replace ctx.covered off ()
      done
    | _, _ -> ()
  in
  { Sym_state.toa = ctx.toa; concretize; on_write }

let solver_mode ctx =
  if ctx.budget.portfolio then Solver.Portfolio else Solver.Pipeline

(* per-query eval budget, clamped to what the run-wide cap has left *)
let query_evals ctx =
  let remaining =
    ctx.budget.total_solver_evals - ctx.stats.solver.Solver.evals
  in
  min ctx.budget.solver_evals (max 0 remaining)

let solve ?seed ctx cs =
  let max_evals = query_evals ctx in
  if max_evals <= 0 then None
  else
    Solver.solve ~rng:(Util.Rng.split ctx.rng) ~stats:ctx.stats.solver
      ~deadline:ctx.deadline ~mode:(solver_mode ctx) ?seed
      ~n_inputs:ctx.tgt.n_inputs ~max_evals cs

(* on path completion (halt): try to conclude the secret goal *)
let check_secret ctx (st : Sym_state.t) witness =
  match ctx.goal with
  | G_coverage -> ()
  | G_secret ->
    if ctx.found = None then begin
      let rax = Sym_state.get st X86.Isa.RAX in
      let ev = E.evaluator ~input:(Solver.input_of_model witness) in
      if ev rax = 1L then ctx.found <- Some witness
      else
        let cs =
          { Solver.cond = E.bin E.Eq rax E.one; want = true } :: st.Sym_state.constraints
        in
        match solve ~seed:witness ctx cs with
        | Some m ->
          (* verify on the concrete obfuscated binary *)
          let input = Solver.input_of_model m in
          let arg = ref 0L in
          for i = ctx.tgt.n_inputs - 1 downto 0 do
            arg := Int64.logor (Int64.shift_left !arg 8) (Int64.of_int (input i))
          done;
          let r =
            Runner.call ~fuel:100_000_000 ctx.tgt.img ~func:ctx.tgt.func
              ~args:[ !arg ]
          in
          if r.Runner.status = Machine.Exec.Halted && r.Runner.rax = 1L then
            ctx.found <- Some m
        | None -> ()
    end

let goal_met ctx =
  match ctx.goal with
  | G_secret -> ctx.found <> None
  | G_coverage ->
    (match ctx.cov_range with
     | Some (lo, hi) -> Hashtbl.length ctx.covered >= Int64.to_int (Int64.sub hi lo)
     | None -> false)

(* --- single concolic path under a witness ------------------------------------ *)

type branch_event = {
  be_prefix : Solver.constr list;   (* constraints before this decision *)
  be_cond : E.t;                    (* condition or target expression *)
  be_taken : bool;                  (* concrete outcome (branches only) *)
  be_value : int64;                 (* concrete target (indirects only) *)
  be_is_indirect : bool;
  be_site : int64;
}

(* Run one path; returns the final state and the branch events, newest
   first. *)
let concolic_path ctx witness =
  let st = initial_state ctx in
  let w = ref witness in
  let model = model_for ctx w in
  let ev = E.evaluator ~input:(Solver.input_of_model witness) in
  let events = ref [] in
  let fuel = ref ctx.budget.path_fuel in
  let rec go () =
    if !fuel <= 0 || path_out_of_time ctx (ctx.budget.path_fuel - !fuel)
    then `Fuel
    else begin
      decr fuel;
      ctx.stats.instrs <- ctx.stats.instrs + 1;
      let outcome = Sym_state.step ~model ~decode_cache:ctx.decode_cache st in
      (* pinned symbolic addresses are forkable decisions *)
      List.iter
        (fun (addr_e, a) ->
           events :=
             { be_prefix = st.Sym_state.constraints; be_cond = addr_e;
               be_taken = true; be_value = a; be_is_indirect = true;
               be_site = st.Sym_state.rip }
             :: !events)
        st.Sym_state.concretizations;
      st.Sym_state.concretizations <- [];
      match outcome with
      | Sym_state.O_ok -> go ()
      | Sym_state.O_halt -> `Halt
      | Sym_state.O_fault m -> `Fault m
      | Sym_state.O_branch (cond, taken, fall) ->
        let v = ev cond <> 0L in
        events :=
          { be_prefix = st.Sym_state.constraints; be_cond = cond;
            be_taken = v; be_value = 0L; be_is_indirect = false;
            be_site = fall }
          :: !events;
        Sym_state.constrain st cond v;
        st.Sym_state.rip <- (if v then taken else fall);
        go ()
      | Sym_state.O_indirect target ->
        let v = ev target in
        events :=
          { be_prefix = st.Sym_state.constraints; be_cond = target;
            be_taken = true; be_value = v; be_is_indirect = true;
            be_site = st.Sym_state.rip }
          :: !events;
        Sym_state.constrain st (E.bin E.Eq target (E.Const v)) true;
        st.Sym_state.rip <- v;
        go ()
    end
  in
  let outcome = go () in
  (st, !events, outcome)

(* --- DSE: generational search with CUPA-like scheduling ----------------------- *)

let model_key (m : Solver.model) = Array.to_list m

(* Export one engine run's aggregate stats into the metrics registry (cold
   path, once per dse/se invocation; solver-level counters are recorded by
   Solver.solve itself). *)
let publish_run name (r : result) =
  if Obs.Metrics.enabled () then begin
    let c = Obs.Metrics.count in
    c (name ^ ".runs") 1;
    c (name ^ ".states") r.stats.states;
    c (name ^ ".instrs") r.stats.instrs;
    c (name ^ ".paths_completed") r.stats.paths_completed;
    if r.stats.timed_out then c (name ^ ".timeouts") 1;
    if r.secret_input <> None then c (name ^ ".secrets_found") 1
  end

let dse ?(toa = false) ?(seed = 99) ~goal ~budget tgt =
  Obs.Trace.with_span "symex.dse" @@ fun () ->
  let ctx = make_ctx ~toa ~seed ~goal ~budget tgt in
  let t0 = Unix.gettimeofday () in
  let seen = Hashtbl.create 64 in
  (* pending negation jobs, grouped by branch site *)
  let groups : (int64, (Solver.constr list * Solver.constr * Solver.model) Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let add_job site job =
    let q =
      match Hashtbl.find_opt groups site with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace groups site q;
        q
    in
    Queue.add job q
  in
  let run_input witness =
    if not (Hashtbl.mem seen (model_key witness)) then begin
      Hashtbl.replace seen (model_key witness) ();
      ctx.stats.states <- ctx.stats.states + 1;
      let st, events, outcome = concolic_path ctx witness in
      (match outcome with
       | `Halt ->
         ctx.stats.paths_completed <- ctx.stats.paths_completed + 1;
         check_secret ctx st witness
       | `Fault _ | `Fuel -> ());
      (* queue negation jobs, shallowest first: deep negations are usually
         unsat and expensive to refute *)
      List.iter
        (fun be ->
           if be.be_is_indirect then
             add_job be.be_site
               (be.be_prefix,
                { Solver.cond = E.bin E.Eq be.be_cond (E.Const be.be_value);
                  want = false },
                witness)
           else
             add_job be.be_site
               (be.be_prefix,
                { Solver.cond = be.be_cond; want = not be.be_taken },
                witness))
        (List.rev events)
    end
  in
  run_input (Array.make (max ctx.tgt.n_inputs 1) 0);
  if not (goal_met ctx) then
    run_input (Array.init (max ctx.tgt.n_inputs 1) (fun _ -> Util.Rng.int ctx.rng 256));
  (* class-uniform rotation over branch sites *)
  let continue_ = ref true in
  while !continue_ && not (goal_met ctx) && not (out_of_budget ctx) do
    let sites = Hashtbl.fold (fun s q acc -> if Queue.is_empty q then acc else (s, q) :: acc) groups [] in
    if sites = [] then continue_ := false
    else
      List.iter
        (fun (_, q) ->
           if not (goal_met ctx) && not (out_of_budget ctx) && not (Queue.is_empty q)
           then begin
             let prefix, neg, seed = Queue.pop q in
             match solve ~seed ctx (neg :: prefix) with
             | Some m -> run_input m
             | None -> ()
           end)
        sites
  done;
  if out_of_time ctx then ctx.stats.timed_out <- true;
  let r =
    { secret_input = ctx.found;
      covered = ctx.covered;
      n_probes =
        (match ctx.cov_range with
         | Some (lo, hi) -> Int64.to_int (Int64.sub hi lo)
         | None -> 0);
      time = Unix.gettimeofday () -. t0;
      stats = ctx.stats }
  in
  publish_run "symex.dse" r;
  r

(* --- SE: eager forking exploration -------------------------------------------- *)

let se ?(toa = true) ?(seed = 99) ~goal ~budget tgt =
  Obs.Trace.with_span "symex.se" @@ fun () ->
  let ctx = make_ctx ~toa ~seed ~goal ~budget tgt in
  let t0 = Unix.gettimeofday () in
  (* DFS worklist of (state, witness) *)
  let stack = ref [ (initial_state ctx, Array.make (max ctx.tgt.n_inputs 1) 0) ] in
  while !stack <> [] && not (goal_met ctx) && not (out_of_budget ctx) do
    match !stack with
    | [] -> ()
    | (st, witness) :: rest ->
      stack := rest;
      ctx.stats.states <- ctx.stats.states + 1;
      let w = ref witness in
      let model = model_for ctx w in
      let ev = E.evaluator ~input:(Solver.input_of_model witness) in
      let fuel = ref ctx.budget.path_fuel in
      let rec go () =
        if !fuel <= 0 || path_out_of_time ctx (ctx.budget.path_fuel - !fuel)
        then ()
        else begin
          decr fuel;
          ctx.stats.instrs <- ctx.stats.instrs + 1;
          match Sym_state.step ~model ~decode_cache:ctx.decode_cache st with
          | Sym_state.O_ok -> go ()
          | Sym_state.O_halt ->
            ctx.stats.paths_completed <- ctx.stats.paths_completed + 1;
            check_secret ctx st witness
          | Sym_state.O_fault _ -> ()
          | Sym_state.O_branch (cond, taken, fall) ->
            let v = ev cond <> 0L in
            (* fork the other side if feasible *)
            let other = Sym_state.copy st in
            Sym_state.constrain other cond (not v);
            (match solve ctx other.Sym_state.constraints with
             | Some m ->
               other.Sym_state.rip <- (if v then fall else taken);
               stack := (other, m) :: !stack
             | None -> ());
            Sym_state.constrain st cond v;
            st.Sym_state.rip <- (if v then taken else fall);
            go ()
          | Sym_state.O_indirect target ->
            let v = ev target in
            (* enumerate alternative targets *)
            let others =
              Solver.enumerate ~rng:(Util.Rng.split ctx.rng)
                ~stats:ctx.stats.solver ~deadline:ctx.deadline
                ~mode:(solver_mode ctx) ~n_inputs:ctx.tgt.n_inputs
                ~max_evals:(max 1 (query_evals ctx))
                ~limit:(ctx.budget.indirect_limit - 1)
                ({ Solver.cond = E.bin E.Eq target (E.Const v); want = false }
                 :: st.Sym_state.constraints)
                target
            in
            List.iter
              (fun (tv, m) ->
                 let other = Sym_state.copy st in
                 Sym_state.constrain other (E.bin E.Eq target (E.Const tv)) true;
                 other.Sym_state.rip <- tv;
                 stack := (other, m) :: !stack)
              others;
            Sym_state.constrain st (E.bin E.Eq target (E.Const v)) true;
            st.Sym_state.rip <- v;
            go ()
        end
      in
      go ()
  done;
  if out_of_time ctx then ctx.stats.timed_out <- true;
  let r =
    { secret_input = ctx.found;
      covered = ctx.covered;
      n_probes =
        (match ctx.cov_range with
         | Some (lo, hi) -> Int64.to_int (Int64.sub hi lo)
         | None -> 0);
      time = Unix.gettimeofday () -. t0;
      stats = ctx.stats }
  in
  publish_run "symex.se" r;
  r

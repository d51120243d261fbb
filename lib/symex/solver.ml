(* Constraint solver over input bytes.

   Evaluation-based: a candidate model is a byte assignment to the Input
   variables; constraints are checked by evaluating their expressions.  The
   serial pipeline tries (1) the zero model, (2) the caller's seed, (3)
   multi-restart stochastic local search guided by a structural distance
   function (SAGE-style fitness), then (4) enumeration of the whole input
   space when it is at most 2 bytes.  This is deliberately not an
   industrial SMT solver: paper inputs are 1-8 bytes and the obfuscations
   under study attack path explosion and aliasing, not solver algebra
   (DESIGN.md).

   On top of the seed pipeline this module adds the attacker-at-scale
   machinery (EXPERIMENTS.md, "Attack campaigns & solver portfolio"):

   - a normalized-query memo cache: queries are canonicalized (input
     alpha-renaming, commutative-operand ordering, constant folding) to a
     content digest and verdicts+models are memoized in memory and,
     optionally, in a _jobs_cache/-style on-disk store salted by
     [Memo.solver_version].  A cached model is never returned without
     re-validation against the *original* query, so a digest collision or a
     stale entry degrades to a recompute, never to a wrong answer;
   - incremental re-solving along DSE path prefixes: proven-unsat
     constraint sets are remembered (as sorted per-constraint digests) and
     any later query that merely *grows* such a set is unsat without
     search;
   - a portfolio mode racing four strategies (domain inversion, interval
     coordinate descent, exhaustive enumeration, stochastic local search)
     in round-robin time slices with early cancellation and per-strategy
     win/loss Obs counters. *)

type constr = {
  cond : Expr.t;        (* boolean-valued expression *)
  want : bool;          (* require cond <> 0 (true) or cond = 0 (false) *)
}

type model = int array  (* one byte per input index *)

(* A verdict distinguishes proven unsatisfiability from a search that
   merely ran out of budget: [V_unsat] may only be produced by a complete
   strategy (full enumeration of the space the constraints depend on), and
   is the only verdict that transfers to supersets of the constraint set. *)
type verdict =
  | V_sat of model
  | V_unsat
  | V_unknown

type stats = {
  mutable evals : int;  (* expression-set evaluations spent *)
  mutable runs : int;   (* of which ran the compiled query: the rest were
                           models the query had already scored *)
}

let make_stats () = { evals = 0; runs = 0 }

exception Deadline

(* Deadline support: checked every few evaluations.  The stride is 16, not
   64 as in the seed: an oversized query can spend ~100us per evaluation,
   and the portfolio's early cancellation relies on strategies noticing the
   deadline between restarts, so the check has to be tight enough that one
   slice cannot overshoot a cell's wall budget by more than a few ms
   (test_portfolio.ml pins the overshoot bound). *)
let check_deadline =
  let counter = ref 0 in
  fun deadline ->
    incr counter;
    if !counter land 15 = 0 && deadline > 0.0
       && Unix.gettimeofday () > deadline
    then raise Deadline

let hit_deadline deadline =
  deadline > 0.0 && Unix.gettimeofday () > deadline

let input_of_model (m : model) i = if i < Array.length m then m.(i) else 0

(* --- compiled queries --------------------------------------------------------

   A query compiles all constraint conditions (plus comparison operands, for
   the distance function) into one flat Expr program evaluated per candidate
   model without allocation.

   A query also remembers the models it has scored, in a direct-mapped table
   of [scored_slots] entries: the key packs the model's input bytes into one
   int, the value is the penalty.  The search proposes the same model many
   times over a 1-byte input space (local search, then the exhaustive sweep
   of the same 256 values), and a repeat is answered from the table without
   running the program.  A model's score is a function of its bytes alone,
   so a hit returns exactly what a run would.

   Most callers only need the verdict.  [eval_verdict] runs the program one
   constraint at a time and stops at the first violated one.  A rejected
   model still takes its slot, marked [pen_unknown]; [eval_query] treats
   the mark as a miss and scores the model afresh.  Either way each call
   leaves the same key in each slot. *)

type item_kind =
  | K_flat
  | K_eq of int * int          (* node ids of the compared operands *)
  | K_cmp of int * int

type query = {
  comp : Expr.compiled;
  items : (int * bool * item_kind) array;   (* cond node id, want, kind *)
  ends : int array;           (* per item: [Expr.live_upto] of its cond *)
  scored_keys : int array;    (* [model_key] per slot, -1 when empty *)
  scored_pens : int array;    (* the penalty that model scored, or
                                 [pen_unknown] *)
}

let scored_slots = 256

(* The slot's model violates some constraint; its penalty was not computed. *)
let pen_unknown = -1

(* The model's bytes as [Expr.run] reads them ([m.(i) land 0xff]; bytes past
   the model read as 0), byte [i] at bit [8 i].  Models of up to 7 bytes fit
   an int; a longer one has no key (-1) and bypasses the table. *)
let model_key (m : model) =
  let n = Array.length m in
  if n > 7 then -1
  else begin
    let k = ref 0 in
    for i = n - 1 downto 0 do
      k := (!k lsl 8) lor (m.(i) land 0xff)
    done;
    !k
  end

(* A key's bytes folded into one by xor: a 1-byte model's slot is the byte
   itself, so a 1-byte query never runs twice on one input.  Longer models
   may share a slot; the slot then holds the newer one, and the older one
   misses. *)
let key_slot k =
  let k = k lxor (k lsr 32) in
  let k = k lxor (k lsr 16) in
  (k lxor (k lsr 8)) land (scored_slots - 1)

(* Strip boolean negations so the distance function sees the comparison
   underneath: !(e) wanted true == e wanted false, and the stepper encodes
   "not" over 0/1 values as xor 1. *)
let rec normalize cond want =
  match cond with
  | Expr.Un (Expr.Bool_not, e, _) -> normalize e (not want)
  | Expr.Bin (Expr.Xor, e, Expr.Const 1L, _) -> normalize e (not want)
  | Expr.Bin (Expr.Xor, Expr.Const 1L, e, _) -> normalize e (not want)
  | Expr.Bin (Expr.Eq, e, Expr.Const 0L, _) -> normalize e (not want)
  | Expr.Bin (Expr.Eq, Expr.Const 0L, e, _) -> normalize e (not want)
  | _ -> (cond, want)

let compile_query cs =
  let cs =
    List.map
      (fun c ->
         let cond, want = normalize c.cond c.want in
         { cond; want })
      cs
  in
  let conds = List.map (fun c -> c.cond) cs in
  let extras =
    List.concat_map
      (fun c ->
         match c.cond with
         | Expr.Bin ((Expr.Eq | Expr.Ult | Expr.Ule | Expr.Slt | Expr.Sle), a, b, _) ->
           [ a; b ]
         | _ -> [])
      cs
  in
  let comp = Expr.compile (conds @ extras) in
  let n = List.length cs in
  let extra_pos = ref n in
  let items =
    Array.of_list
      (List.mapi
         (fun i c ->
            let kind =
              match c.cond, c.want with
              | Expr.Bin (Expr.Eq, _, _, _), true ->
                let ia = comp.Expr.roots.(!extra_pos) in
                let ib = comp.Expr.roots.(!extra_pos + 1) in
                extra_pos := !extra_pos + 2;
                K_eq (ia, ib)
              | Expr.Bin ((Expr.Ult | Expr.Ule | Expr.Slt | Expr.Sle), _, _, _), _ ->
                let ia = comp.Expr.roots.(!extra_pos) in
                let ib = comp.Expr.roots.(!extra_pos + 1) in
                extra_pos := !extra_pos + 2;
                K_cmp (ia, ib)
              | Expr.Bin (Expr.Eq, _, _, _), false ->
                extra_pos := !extra_pos + 2;
                K_flat
              | _ -> K_flat
            in
            (comp.Expr.roots.(i), c.want, kind))
         cs)
  in
  { comp; items;
    ends = Array.map (fun (ci, _, _) -> Expr.live_upto comp ci) items;
    scored_keys = Array.make scored_slots (-1);
    scored_pens = Array.make scored_slots 0 }

(* Run the compiled query under [m] and return its penalty: the distance
   from satisfying every constraint, 0 exactly when [m] is a model. *)
let score q (m : model) =
  let c = q.comp in
  Expr.run c ~input:(input_of_model m);
  let pen = ref 0 in
  Array.iter
    (fun (ci, want, kind) ->
       if Expr.slot_true c ci <> want then
         pen := !pen
                + (match kind with
                   | K_eq (ia, ib) ->
                     max 1
                       (min (Expr.slot_xor_popcount c ia ib)
                          (Expr.slot_log2_dist c ia ib))
                   | K_cmp (ia, ib) -> max 1 (Expr.slot_log2_dist c ia ib)
                   | K_flat -> 40))
    q.items;
  !pen

(* Evaluate the query under [m]; returns (all satisfied, penalty).  This is
   the one place an evaluation is counted ([stats.evals]).  A model the
   table holds is answered without a run; [stats.runs] counts the runs. *)
let eval_query ~stats q (m : model) =
  stats.evals <- stats.evals + 1;
  let k = model_key m in
  let s = key_slot k in
  if k >= 0 && Array.unsafe_get q.scored_keys s = k
     && Array.unsafe_get q.scored_pens s <> pen_unknown then begin
    let pen = Array.unsafe_get q.scored_pens s in
    (pen = 0, pen)
  end else begin
    stats.runs <- stats.runs + 1;
    let pen = score q m in
    if k >= 0 then begin
      Array.unsafe_set q.scored_keys s k;
      Array.unsafe_set q.scored_pens s pen
    end;
    (pen = 0, pen)
  end

(* Does [m] satisfy every constraint?  Item [j]'s condition depends only
   on the live nodes up to [q.ends.(j)], so the program runs in stretches,
   one item at a time, and stops at the first violated item. *)
let satisfies q (m : model) =
  let c = q.comp and items = q.items and ends = q.ends in
  let input = input_of_model m in
  let n = Array.length items in
  let rec go j ran =
    j >= n
    || (let e = Array.unsafe_get ends j in
        if e > ran then Expr.run_range c ~input ran e;
        let ci, want, _ = Array.unsafe_get items j in
        Expr.slot_true c ci = want && go (j + 1) (max e ran))
  in
  go 0 0

(* [fst (eval_query ~stats q m)] without computing the penalty.  A slot
   marked [pen_unknown] answers as a rejection without a run. *)
let eval_verdict ~stats q (m : model) =
  stats.evals <- stats.evals + 1;
  let k = model_key m in
  let s = key_slot k in
  if k >= 0 && Array.unsafe_get q.scored_keys s = k then
    Array.unsafe_get q.scored_pens s = 0
  else begin
    stats.runs <- stats.runs + 1;
    let sat = satisfies q m in
    if k >= 0 then begin
      Array.unsafe_set q.scored_keys s k;
      Array.unsafe_set q.scored_pens s (if sat then 0 else pen_unknown)
    end;
    sat
  end

let check (m : model) cs =
  let ev = Expr.evaluator ~input:(input_of_model m) in
  List.for_all (fun c -> (ev c.cond <> 0L) = c.want) cs

(* --- canonicalization --------------------------------------------------------

   The content address of a query.  Two queries that differ only by input
   alpha-renaming, commutative operand order, or foldable constants map to
   the same digest; the serialization is injective on canonical forms, so
   distinct semantics can only collide through MD5 itself — and a Sat hit
   is re-validated against the original query anyway.

   Queries mentioning symbolic memory ([Load]) close over a concrete memory
   snapshot that has no stable serialization; they are simply uncacheable.

   Shapes and serializations are per-node MD5 digests, memoized per node
   ([Expr.Phys_tbl]: interior nodes by identity, leaves by value), so
   heavily shared DAGs (loop-generated expressions) stay linear — expanding
   them to strings would be exponential. *)

exception Uncacheable

let commutative = function
  | Expr.Add | Expr.Mul | Expr.And | Expr.Or | Expr.Xor | Expr.Eq -> true
  | Expr.Sub | Expr.Udiv | Expr.Urem | Expr.Sdiv | Expr.Srem
  | Expr.Shl | Expr.Shr | Expr.Sar
  | Expr.Ult | Expr.Slt | Expr.Ule | Expr.Sle
  | Expr.Mulhi_u | Expr.Mulhi_s -> false

let bin_tag = function
  | Expr.Add -> "+" | Expr.Sub -> "-" | Expr.Mul -> "*" | Expr.Udiv -> "/u"
  | Expr.Urem -> "%u" | Expr.Sdiv -> "/s" | Expr.Srem -> "%s"
  | Expr.And -> "&" | Expr.Or -> "|" | Expr.Xor -> "^"
  | Expr.Shl -> "<<" | Expr.Shr -> ">>u" | Expr.Sar -> ">>s"
  | Expr.Eq -> "==" | Expr.Ult -> "<u" | Expr.Slt -> "<s"
  | Expr.Ule -> "<=u" | Expr.Sle -> "<=s"
  | Expr.Mulhi_u -> "*hu" | Expr.Mulhi_s -> "*hs"

let un_tag = function
  | Expr.Not -> "~"
  | Expr.Neg -> "neg"
  | Expr.Low (w, s) ->
    Printf.sprintf "low%d%c" (X86.Isa.width_bits w) (if s then 's' else 'z')
  | Expr.Bool_not -> "!"

type canon = {
  cq_digest : string;                 (* hex content address of the query *)
  cq_renaming : (int * int) list;     (* original input index -> canonical *)
  cq_n_canon : int;                   (* canonical variable count *)
}

(* Serialize one expression to a per-node digest under [rename] (canonical
   index of an original input index).  Commutative children are visited in
   shape order (ties keep source order), matching the traversal that
   assigned the canonical indices. *)
let canonicalize ~n_inputs cs =
  match
    (* 0. normalize want-polarity, fold constants through the smart
       constructors, and pin out-of-range inputs (always 0 in the engine's
       input model) to Const 0 so they don't consume canonical names *)
    let rebuild_tbl = Expr.Phys_tbl.create 64 in
    let rec rebuild e =
      match e with
      (* a leaf is returned as itself, never through [rebuild_tbl], whose
         keys merge equal leaves: the folds [bin And x x] and [ite c t t]
         test [==], and two distinct [Input 0] nodes must not fold *)
      | Expr.Const _ -> e
      | Expr.Input i -> if i >= n_inputs then Expr.Const 0L else e
      | Expr.Load _ -> raise Uncacheable
      | Expr.Bin _ | Expr.Un _ | Expr.Ite _ ->
        (match Expr.Phys_tbl.find_opt rebuild_tbl e with
         | Some r -> r
         | None ->
           let r =
             match e with
             | Expr.Const _ | Expr.Input _ | Expr.Load _ -> assert false
             | Expr.Bin (op, a, b, _) -> Expr.bin op (rebuild a) (rebuild b)
             | Expr.Un (op, a, _) -> Expr.un op (rebuild a)
             | Expr.Ite (c, t, f, _) ->
               Expr.ite (rebuild c) (rebuild t) (rebuild f)
           in
           Expr.Phys_tbl.replace rebuild_tbl e r;
           r)
    in
    let cs =
      List.map
        (fun c ->
           (* fold first: polarity patterns like Eq(e, 0) are matched on the
              folded form, so raw and pre-folded spellings of the same
              query normalize identically *)
           let cond, want = normalize (rebuild c.cond) c.want in
           { cond; want })
        cs
    in
    (* 1. input-blind shapes, commutative operands in shape order *)
    let shape_tbl = Expr.Phys_tbl.create 256 in
    let rec shape e =
      match Expr.Phys_tbl.find_opt shape_tbl e with
      | Some s -> s
      | None ->
        let s =
          match e with
          | Expr.Const v -> Digest.string ("C" ^ Int64.to_string v)
          | Expr.Input _ -> Digest.string "I"
          | Expr.Bin (op, a, b, _) ->
            let sa = shape a and sb = shape b in
            let sa, sb =
              if commutative op && String.compare sb sa < 0 then (sb, sa)
              else (sa, sb)
            in
            Digest.string ("B" ^ bin_tag op ^ sa ^ sb)
          | Expr.Un (op, a, _) -> Digest.string ("U" ^ un_tag op ^ shape a)
          | Expr.Ite (c, t, f, _) ->
            Digest.string ("T" ^ shape c ^ shape t ^ shape f)
          | Expr.Load _ -> raise Uncacheable
        in
        Expr.Phys_tbl.replace shape_tbl e s;
        s
    in
    (* 2. constraint order: by (shape, want), stable *)
    let scs =
      List.stable_sort
        (fun (s1, c1) (s2, c2) ->
           match String.compare s1 s2 with
           | 0 -> compare c1.want c2.want
           | n -> n)
        (List.map (fun c -> (shape c.cond, c)) cs)
    in
    (* 3. canonical input names by first occurrence in the shape-ordered
       traversal *)
    let ren = Hashtbl.create 8 in
    let visited = Expr.Phys_tbl.create 256 in
    let rec visit e =
      if not (Expr.Phys_tbl.mem visited e) then begin
        Expr.Phys_tbl.replace visited e ();
        match e with
        | Expr.Const _ -> ()
        | Expr.Input i ->
          if not (Hashtbl.mem ren i) then
            Hashtbl.replace ren i (Hashtbl.length ren)
        | Expr.Bin (op, a, b, _) ->
          if commutative op && String.compare (shape b) (shape a) < 0
          then (visit b; visit a)
          else (visit a; visit b)
        | Expr.Un (_, a, _) -> visit a
        | Expr.Ite (c, t, f, _) -> visit c; visit t; visit f
        | Expr.Load _ -> raise Uncacheable
      end
    in
    List.iter (fun (_, c) -> visit c.cond) scs;
    (* 4. final per-node digests under the renaming *)
    let ser_tbl = Expr.Phys_tbl.create 256 in
    let rec ser e =
      match Expr.Phys_tbl.find_opt ser_tbl e with
      | Some s -> s
      | None ->
        let s =
          match e with
          | Expr.Const v -> Digest.string ("c" ^ Int64.to_string v)
          | Expr.Input i ->
            Digest.string ("i" ^ string_of_int (Hashtbl.find ren i))
          | Expr.Bin (op, a, b, _) ->
            let a, b =
              if commutative op && String.compare (shape b) (shape a) < 0
              then (b, a)
              else (a, b)
            in
            Digest.string ("b" ^ bin_tag op ^ ser a ^ ser b)
          | Expr.Un (op, a, _) -> Digest.string ("u" ^ un_tag op ^ ser a)
          | Expr.Ite (c, t, f, _) -> Digest.string ("t" ^ ser c ^ ser t ^ ser f)
          | Expr.Load _ -> raise Uncacheable
        in
        Expr.Phys_tbl.replace ser_tbl e s;
        s
    in
    let body =
      String.concat ""
        (List.map
           (fun (_, c) -> ser c.cond ^ (if c.want then "T" else "F"))
           scs)
    in
    let k = Hashtbl.length ren in
    { cq_digest = Digest.to_hex (Digest.string (body ^ "#" ^ string_of_int k));
      cq_renaming = Hashtbl.fold (fun o c acc -> (o, c) :: acc) ren [];
      cq_n_canon = k }
  with
  | c -> Some c
  | exception Uncacheable -> None

(* Concrete (unrenamed, unsorted-set) digest of one constraint: the element
   key for unsat-core subset matching.  Structural, so it matches across
   paths even when the DSE engine rebuilds physically distinct but equal
   expressions.  [concrete_ser ()] memoizes per-node digests in an
   [Expr.Phys_tbl]; one serializer serves a whole query, whose constraints
   share the path prefix. *)
let concrete_ser () =
  let tbl = Expr.Phys_tbl.create 64 in
  let rec ser e =
    match Expr.Phys_tbl.find_opt tbl e with
    | Some s -> s
    | None ->
      let s =
        match e with
        | Expr.Const v -> Digest.string ("c" ^ Int64.to_string v)
        | Expr.Input i -> Digest.string ("x" ^ string_of_int i)
        | Expr.Bin (op, a, b, _) -> Digest.string ("b" ^ bin_tag op ^ ser a ^ ser b)
        | Expr.Un (op, a, _) -> Digest.string ("u" ^ un_tag op ^ ser a)
        | Expr.Ite (c, t, f, _) -> Digest.string ("t" ^ ser c ^ ser t ^ ser f)
        | Expr.Load _ -> raise Uncacheable
      in
      Expr.Phys_tbl.replace tbl e s;
      s
  in
  fun c ->
    let cond, want = normalize c.cond c.want in
    ser cond ^ (if want then "T" else "F")

let constraint_digest c =
  match concrete_ser () c with
  | s -> Some s
  | exception Uncacheable -> None

(* Sorted concrete digests of a whole query, or None if any constraint is
   uncacheable. *)
let concrete_digests cs =
  match List.map (concrete_ser ()) cs with
  | ds -> Some (List.sort String.compare ds)
  | exception Uncacheable -> None

(* sorted-list subset test: is [a] contained in [b]? *)
let rec subset a b =
  match a, b with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys ->
    let c = String.compare x y in
    if c = 0 then subset xs ys
    else if c > 0 then subset a ys
    else false

(* --- memo cache --------------------------------------------------------------

   Verdict+model store keyed by canonical digest.  Always an in-memory
   table; optionally backed by a _jobs_cache/-style on-disk store
   ([Jobs.Cache] with an explicit salt), so campaign runs share solver work
   across processes and across invocations.  The salt is the declared
   solver version, not the executable digest: memo entries are plain data
   (byte arrays and verdict tags) whose meaning survives rebuilds — bump
   [solver_version] when the solver's semantics change. *)

type memo_entry =
  | ME_sat of int array           (* model in canonical variable space *)
  | ME_unsat                      (* complete-strategy proof *)
  | ME_unknown of int             (* survived a search of this many evals *)

module Memo = struct
  let solver_version = "solver-memo/v1"

  type t = {
    table : (string, memo_entry) Hashtbl.t;
    disk : Jobs.Cache.t option;
    (* proven-unsat constraint sets as sorted concrete digests: any query
       that grows one of these is unsat without search (bounded ring) *)
    cores : string list array;
    mutable n_cores : int;
    mutable hits : int;
    mutable misses : int;
    mutable stores : int;
    mutable invalid : int;        (* cached models that failed re-validation *)
    mutable prefix_hits : int;    (* unsat-core subset hits *)
  }

  let max_cores = 128

  let create ?dir () =
    { table = Hashtbl.create 256;
      disk =
        Option.map (fun dir -> Jobs.Cache.create ~salt:solver_version ~dir ())
          dir;
      cores = Array.make max_cores [];
      n_cores = 0;
      hits = 0; misses = 0; stores = 0; invalid = 0; prefix_hits = 0 }

  let find t digest =
    match Hashtbl.find_opt t.table digest with
    | Some e -> Some e
    | None ->
      Option.bind t.disk (fun c ->
          match Jobs.Cache.find c digest with
          | Some (e : memo_entry) ->
            Hashtbl.replace t.table digest e;
            Some e
          | None -> None)

  let store t digest e =
    t.stores <- t.stores + 1;
    Hashtbl.replace t.table digest e;
    match t.disk with
    | Some c -> Jobs.Cache.store c digest e
    | None -> ()

  let add_core t ds =
    t.cores.(t.n_cores mod max_cores) <- ds;
    t.n_cores <- t.n_cores + 1

  let unsat_superset t ds =
    let n = min t.n_cores max_cores in
    let rec go i =
      i < n && (let core = t.cores.(i) in core <> [] && subset core ds || go (i + 1))
    in
    go 0
end

(* Process-global memo, inherited through lib/jobs forks; campaign workers
   and the engines pick it up without any per-call plumbing. *)
let global_memo : Memo.t option ref = ref None
let set_memo m = global_memo := m

(* --- search strategies -------------------------------------------------------

   Each strategy is a resumable closure advanced in eval-bounded steps:
   Portfolio mode races all four in slices, Pipeline mode runs local search
   and then enumeration, each once.  [Sr_exhausted true] is a completeness
   claim: the strategy enumerated every assignment the constraints can
   distinguish and found nothing, which proves unsat. *)

(* Input indices the constraints actually mention, restricted to the live
   input window [0, n_inputs).  Bytes past it read as 0, as in the engine
   and in [canonicalize], so no strategy may set them: over 0 input bytes
   there is nothing to search, although a model keeps one (zero) slot. *)
let relevant_bytes ~n_inputs cs =
  List.filter (fun b -> b < n_inputs)
    (Expr.input_bytes (List.map (fun c -> c.cond) cs))

(* [s] with every byte at or past [n_inputs] zeroed; [s] itself when it
   holds none.  A caller's seed goes through here before any strategy or
   probe reads it. *)
let in_window ~n_inputs (s : model) : model =
  if Array.length s <= n_inputs then s
  else Array.init (Array.length s) (fun i -> if i < n_inputs then s.(i) else 0)

type step_result =
  | Sr_found of model
  | Sr_exhausted of bool           (* true: complete, unsat is proven *)
  | Sr_running

type strategy = {
  st_name : string;
  st_step : int -> step_result;    (* run up to [k] evaluations *)
}

(* Enumeration over the relevant bytes only (other bytes stay 0, which is
   sound because the constraints do not mention them): complete whenever
   the restricted space fits in the budget. *)
let strat_enumeration ~stats ~deadline ~n_inputs ~bytes q =
  let m = Array.make (max n_inputs 1) 0 in
  let bytes = Array.of_list bytes in
  let nb = Array.length bytes in
  let space = if nb > 3 then max_int else 1 lsl (8 * nb) in
  let i = ref 0 in
  let step k =
    let stop = min space (!i + k) in
    let rec go () =
      if !i >= stop then
        if !i >= space then Sr_exhausted (space < max_int) else Sr_running
      else begin
        check_deadline deadline;
        for b = 0 to nb - 1 do
          m.(bytes.(b)) <- (!i lsr (8 * b)) land 0xff
        done;
        incr i;
        if eval_verdict ~stats q m then Sr_found (Array.copy m) else go ()
      end
    in
    go ()
  in
  { st_name = "enumeration"; st_step = step }

(* Domain inversion: constraints that mention a single input byte restrict
   that byte's domain by direct scan; the query then reduces to the
   cartesian product of the restricted domains.  An empty domain — or a
   fully scanned product — is a completeness proof, because any model must
   lie inside the product.  A product of more than [max_product]
   assignments is scanned only that far, which proves nothing. *)
let max_product = 1 lsl 22

let strat_inversion ~stats ~deadline ~n_inputs ~bytes q cs =
  let m = Array.make (max n_inputs 1) 0 in
  let bytes = Array.of_list bytes in
  let nb = Array.length bytes in
  (* per-byte singleton constraint programs, compiled once *)
  let sole = Expr.sole_input () in
  let cs = List.map (fun c -> (sole c.cond, c)) cs in
  let single =
    Array.map
      (fun b ->
         let cs' =
           List.filter_map
             (fun (s, c) -> if s = Expr.Sole b then Some c else None)
             cs
         in
         match cs' with [] -> None | cs' -> Some (compile_query cs'))
      bytes
  in
  let domains = Array.make (max nb 1) [||] in
  let phase = ref 0 in           (* 0: restrict; 1: product enumeration *)
  let cursor = ref 0 in
  let prod_i = ref 0 in
  let prod_total = ref 1 in
  let complete = ref true in     (* [prod_total] is the whole product *)
  let step k =
    let spent = ref 0 in
    let rec go () =
      if !spent >= k then Sr_running
      else if !phase = 0 then begin
        if !cursor >= nb then begin
          (* move to enumeration of the product *)
          phase := 1;
          let product =
            Array.fold_left
              (fun acc d -> min (max_product + 1) (acc * Array.length d))
              1 (Array.sub domains 0 nb)
          in
          prod_total := min max_product product;
          complete := product <= max_product;
          go ()
        end else begin
          let b = bytes.(!cursor) in
          let dom = ref [] in
          (match single.(!cursor) with
           | None -> dom := List.init 256 Fun.id
           | Some sq ->
             for v = 255 downto 0 do
               check_deadline deadline;
               m.(b) <- v;
               incr spent;
               if eval_verdict ~stats sq m then dom := v :: !dom
             done;
             m.(b) <- 0);
          domains.(!cursor) <- Array.of_list !dom;
          incr cursor;
          if !dom = [] then Sr_exhausted true   (* empty domain: proven unsat *)
          else go ()
        end
      end else if !prod_i >= !prod_total then Sr_exhausted !complete
      else begin
        check_deadline deadline;
        (* decode mixed-radix index into the restricted domains *)
        let ix = ref !prod_i in
        for j = 0 to nb - 1 do
          let d = domains.(j) in
          let n = Array.length d in
          m.(bytes.(j)) <- d.(!ix mod n);
          ix := !ix / n
        done;
        incr prod_i;
        incr spent;
        if eval_verdict ~stats q m then Sr_found (Array.copy m) else go ()
      end
    in
    go ()
  in
  { st_name = "inversion"; st_step = step }

(* Interval/coordinate descent: deterministically sweep each byte over its
   full range keeping the penalty-minimizing value; stop when a full pass
   improves nothing. *)
let strat_interval ~stats ~deadline ~n_inputs ~bytes ?seed q =
  let m = Array.make (max n_inputs 1) 0 in
  (match seed with
   | Some s -> Array.blit s 0 m 0 (min (Array.length s) (Array.length m))
   | None -> ());
  let bytes = Array.of_list bytes in
  let nb = Array.length bytes in
  let cursor = ref 0 in
  let improved = ref false in
  let best = ref max_int in
  let step k =
    if nb = 0 then Sr_exhausted false
    else begin
      let budget = ref k in
      let rec go () =
        if !budget <= 0 then Sr_running
        else begin
          let b = bytes.(!cursor mod nb) in
          let best_v = ref m.(b) in
          let found = ref None in
          for v = 0 to 255 do
            check_deadline deadline;
            m.(b) <- v;
            decr budget;
            let sat, p = eval_query ~stats q m in
            if sat && !found = None then found := Some (Array.copy m);
            if p < !best then begin
              best := p;
              best_v := v;
              improved := true
            end
          done;
          match !found with
          | Some model -> Sr_found model
          | None ->
            m.(b) <- !best_v;
            incr cursor;
            if !cursor mod nb = 0 then begin
              if not !improved then Sr_exhausted false
              else begin
                improved := false;
                go ()
              end
            end
            else go ()
        end
      in
      go ()
    end
  in
  { st_name = "interval"; st_step = step }

(* Multi-restart stochastic local search guided by the query's penalty, a
   structural distance function (SAGE-style fitness): mutate one relevant
   byte, keep the move if the penalty drops, restart from a random model
   after 400 moves without progress.  A query that mentions no input byte
   still searches byte 0; over 0 input bytes there is no byte to move. *)
let strat_local_search ~stats ~deadline ~rng ~n_inputs ~bytes ?seed q =
  let bytes = if bytes = [] && n_inputs > 0 then [ 0 ] else bytes in
  let m = Array.make (max n_inputs 1) 0 in
  (match seed with
   | Some s -> Array.blit s 0 m 0 (min (Array.length s) (Array.length m))
   | None -> ());
  let best = ref max_int in
  let stagnation = ref 0 in
  let started = ref false in
  let step k =
    if bytes = [] then Sr_exhausted false else
    let result = ref None in
    let eval_penalty () =
      let sat, p = eval_query ~stats q m in
      if sat && !result = None then result := Some (Array.copy m);
      p
    in
    if not !started then begin
      started := true;
      best := eval_penalty ()
    end;
    let budget = ref k in
    while !result = None && !budget > 0 do
      decr budget;
      check_deadline deadline;
      let b = List.nth bytes (Util.Rng.int rng (List.length bytes)) in
      let old = m.(b) in
      (match Util.Rng.int rng 4 with
       | 0 -> m.(b) <- Util.Rng.int rng 256
       | 1 -> m.(b) <- old lxor (1 lsl Util.Rng.int rng 8)
       | 2 -> m.(b) <- (old + 1) land 0xff
       | _ -> m.(b) <- (old - 1) land 0xff);
      let p = eval_penalty () in
      if p < !best then begin
        best := p;
        stagnation := 0
      end else begin
        m.(b) <- old;
        incr stagnation;
        if !stagnation > 400 then begin
          (* a restart is a full re-evaluation too: without this check a
             search thrashing through restarts only polls the deadline
             every stride *)
          check_deadline deadline;
          Array.iteri (fun i _ -> m.(i) <- Util.Rng.int rng 256) m;
          best := eval_penalty ();
          stagnation := 0
        end
      end
    done;
    match !result with Some model -> Sr_found model | None -> Sr_running
  in
  { st_name = "local_search"; st_step = step }

(* --- metrics ----------------------------------------------------------------- *)

(* Registry handles: registration is module-init cold path; per-query
   recording below is guarded on [Obs.Metrics.enabled] so a metrics-off run
   pays one bool load per solver call. *)
let m_queries = Obs.Metrics.counter "symex.solver.queries"
let m_sat = Obs.Metrics.counter "symex.solver.sat"
let m_unsat = Obs.Metrics.counter "symex.solver.unsat_or_unknown"
let m_deadline = Obs.Metrics.counter "symex.solver.deadline_hits"
let m_refused = Obs.Metrics.counter "symex.solver.refused_oversized"
let m_evals = Obs.Metrics.counter "symex.solver.evals"
let m_constraints = Obs.Metrics.histogram "symex.solver.constraints_per_query"
let m_memo_hits = Obs.Metrics.counter "symex.solver.memo.hits"
let m_memo_misses = Obs.Metrics.counter "symex.solver.memo.misses"
let m_memo_invalid = Obs.Metrics.counter "symex.solver.memo.revalidation_failures"
let m_memo_prefix = Obs.Metrics.counter "symex.solver.memo.prefix_unsat_hits"
let m_races = Obs.Metrics.counter "symex.solver.portfolio.races"

let strategy_names = [ "inversion"; "interval"; "enumeration"; "local_search" ]

let m_wins =
  List.map
    (fun n -> (n, Obs.Metrics.counter ("symex.solver.portfolio.win." ^ n)))
    strategy_names

let m_losses =
  List.map
    (fun n -> (n, Obs.Metrics.counter ("symex.solver.portfolio.loss." ^ n)))
    strategy_names

(* --- portfolio race ----------------------------------------------------------- *)

(* Round-robin time slices over the four strategies with early
   cancellation: the first Sat model — or the first completeness proof —
   settles the race.  Single-threaded and seeded, so the outcome is a
   function of (query, rng seed, budget) alone. *)
let slice_evals = 512

let portfolio ~stats ~deadline ~rng ?seed ~n_inputs ~max_evals cs q =
  let bytes = relevant_bytes ~n_inputs cs in
  let strategies =
    (* fixed spawn order; each gets an independent, schedule-free stream *)
    let r1 = Util.Rng.split rng in
    [ strat_inversion ~stats ~deadline ~n_inputs ~bytes q cs;
      strat_interval ~stats ~deadline ~n_inputs ~bytes ?seed q;
      strat_enumeration ~stats ~deadline ~n_inputs ~bytes q;
      strat_local_search ~stats ~deadline ~rng:r1 ~n_inputs ~bytes ?seed q ]
  in
  let alive = Array.make (List.length strategies) true in
  let strategies = Array.of_list strategies in
  let evals0 = stats.evals in
  if Obs.Metrics.enabled () then Obs.Metrics.incr m_races;
  let record_outcome winner =
    if Obs.Metrics.enabled () then
      Array.iteri
        (fun i s ->
           if i = winner then
             Obs.Metrics.incr (List.assoc s.st_name m_wins)
           else if alive.(i) then
             Obs.Metrics.incr (List.assoc s.st_name m_losses))
        strategies
  in
  let verdict = ref None in
  let any_alive () = Array.exists Fun.id alive in
  while !verdict = None && any_alive ()
        && stats.evals - evals0 < max_evals do
    (* the slice boundary is the portfolio's own deadline poll: a strategy
       mid-restart cannot push the race past the cell's wall budget *)
    if hit_deadline deadline then raise Deadline;
    Array.iteri
      (fun i s ->
         if !verdict = None && alive.(i)
            && stats.evals - evals0 < max_evals then
           match s.st_step slice_evals with
           | Sr_found m ->
             record_outcome i;
             verdict := Some (V_sat m)
           | Sr_exhausted true ->
             record_outcome i;
             verdict := Some V_unsat
           | Sr_exhausted false -> alive.(i) <- false
           | Sr_running -> ())
      strategies
  done;
  match !verdict with Some v -> v | None -> V_unknown

(* --- solve ------------------------------------------------------------------- *)

(* Queries beyond this many constraints are refused outright, standing in
   for an SMT solver timing out on an oversized query (P1 concretization
   chains produce tens of thousands of path constraints, §V-E). *)
let max_constraints = 4000

type mode = Pipeline | Portfolio

(* The cheap entry probes of both modes: the zero model, then the caller's
   seed.  They settle most DSE negations without a search. *)
let entry_probe ~stats ?seed ~n_inputs q =
  let zero = Array.make (max n_inputs 1) 0 in
  if fst (eval_query ~stats q zero) then Some zero
  else
    match seed with
    | Some s when fst (eval_query ~stats q s) -> Some (Array.copy s)
    | _ -> None

(* Pipeline mode after the entry probes: local search on a quarter of the
   budget, then (for at most 2 input bytes) enumeration of the whole input
   space on the full budget.  [V_unsat] only when the enumeration covered
   the space.  Local search draws from [rng] itself, not a split, so the
   draws are the caller's. *)
let pipeline ~stats ~deadline ~rng ?seed ~n_inputs ~max_evals cs q =
  let bytes = relevant_bytes ~n_inputs cs in
  let ls_budget = if n_inputs <= 2 then max_evals / 4 else max_evals in
  match
    (strat_local_search ~stats ~deadline ~rng ~n_inputs ~bytes ?seed q).st_step
      ls_budget
  with
  | Sr_found m -> V_sat m
  | Sr_exhausted _ | Sr_running when n_inputs > 2 -> V_unknown
  | Sr_exhausted _ | Sr_running ->
    let bytes = List.init n_inputs Fun.id in
    (match
       (strat_enumeration ~stats ~deadline ~n_inputs ~bytes q).st_step max_evals
     with
     | Sr_found m -> V_sat m
     | Sr_exhausted true -> V_unsat
     | Sr_exhausted false | Sr_running -> V_unknown)

(* Solve for a verdict on [cs] over [n_inputs] input bytes within
   [max_evals] expression evaluations.  [memo] overrides the process-global
   memo installed with [set_memo] (pass [Some m] to force one, or rely on
   the global).  Cached Sat models are re-validated against the original
   query before being returned.  Its four phases are trace spans:
   solver.canonicalize, solver.digests, solver.compile and solver.search. *)
let solve_verdict ?(rng = Util.Rng.create 42) ?stats ?(deadline = 0.0)
    ?(mode = Pipeline) ?memo ?seed ~n_inputs ~max_evals cs =
  let stats = match stats with Some s -> s | None -> make_stats () in
  let memo = match memo with Some m -> Some m | None -> !global_memo in
  let seed = Option.map (in_window ~n_inputs) seed in
  let evals0 = stats.evals in
  let record r =
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr m_queries;
      Obs.Metrics.observe m_constraints (List.length cs);
      Obs.Metrics.add m_evals (stats.evals - evals0);
      Obs.Metrics.incr (match r with V_sat _ -> m_sat | _ -> m_unsat)
    end;
    r
  in
  record @@
  if List.compare_length_with cs max_constraints > 0 then begin
    Obs.Metrics.incr m_refused;
    V_unknown
  end
  else
  try
    if hit_deadline deadline then raise Deadline;
    (* memo lookup before any search *)
    let canon =
      match memo with
      | None -> None
      | Some _ ->
        Obs.Trace.with_span "solver.canonicalize" (fun () ->
            canonicalize ~n_inputs cs)
    in
    let cached_seed = ref None in
    let memo_hit =
      match memo, canon with
      | Some mc, Some c ->
        (match Memo.find mc c.cq_digest with
         | Some (ME_sat cm) ->
           let m = Array.make (max n_inputs 1) 0 in
           List.iter
             (fun (o, cn) ->
                if o < Array.length m && cn < Array.length cm then
                  m.(o) <- cm.(cn))
             c.cq_renaming;
           if check m cs then begin
             mc.Memo.hits <- mc.Memo.hits + 1;
             if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_hits;
             Some (V_sat m)
           end else begin
             (* stale or colliding entry: never surface it, but keep the
                model as a search seed and overwrite the entry below *)
             mc.Memo.invalid <- mc.Memo.invalid + 1;
             if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_invalid;
             cached_seed := Some m;
             None
           end
         | Some ME_unsat ->
           mc.Memo.hits <- mc.Memo.hits + 1;
           if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_hits;
           Some V_unsat
         | Some (ME_unknown ev) when ev >= max_evals ->
           mc.Memo.hits <- mc.Memo.hits + 1;
           if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_hits;
           Some V_unknown
         | Some (ME_unknown _) | None ->
           mc.Memo.misses <- mc.Memo.misses + 1;
           if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_misses;
           None)
      | _ -> None
    in
    match memo_hit with
    | Some v -> v
    | None ->
      (* incremental prefix reuse: a query that grows a proven-unsat set is
         unsat without search *)
      let concrete =
        match memo with
        | None -> None
        | Some _ ->
          Obs.Trace.with_span "solver.digests" (fun () -> concrete_digests cs)
      in
      let prefix_unsat =
        match memo, concrete with
        | Some mc, Some ds when Memo.unsat_superset mc ds ->
          mc.Memo.prefix_hits <- mc.Memo.prefix_hits + 1;
          if Obs.Metrics.enabled () then Obs.Metrics.incr m_memo_prefix;
          true
        | _ -> false
      in
      if prefix_unsat then V_unsat
      else begin
        let seed =
          match seed, !cached_seed with
          | Some _, _ -> seed
          | None, s -> s
        in
        let q =
          Obs.Trace.with_span "solver.compile" (fun () -> compile_query cs)
        in
        let v =
          Obs.Trace.with_span "solver.search" @@ fun () ->
          match entry_probe ~stats ?seed ~n_inputs q, mode with
          | Some m, _ -> V_sat m
          | None, Pipeline ->
            pipeline ~stats ~deadline ~rng ?seed ~n_inputs ~max_evals cs q
          | None, Portfolio ->
            portfolio ~stats ~deadline ~rng ?seed ~n_inputs ~max_evals cs q
        in
        (* store the conclusion; Unknown is only cacheable when it exhausted
           the eval budget rather than the wall clock *)
        (match memo, canon with
         | Some mc, Some c ->
           (match v with
            | V_sat m ->
              let cm = Array.make (max c.cq_n_canon 1) 0 in
              List.iter
                (fun (o, cn) ->
                   if o < Array.length m && cn < Array.length cm then
                     cm.(cn) <- m.(o))
                c.cq_renaming;
              Memo.store mc c.cq_digest (ME_sat cm)
            | V_unsat ->
              Memo.store mc c.cq_digest ME_unsat;
              (match concrete with
               | Some ds -> Memo.add_core mc ds
               | None -> ())
            | V_unknown -> Memo.store mc c.cq_digest (ME_unknown max_evals))
         | _ -> ());
        v
      end
  with Deadline ->
    Obs.Metrics.incr m_deadline;
    V_unknown

(* Back-compatible model-or-nothing entry point (the seed API): Pipeline
   mode unless asked otherwise, global memo if one is installed. *)
let solve ?rng ?stats ?deadline ?mode ?memo ?seed ~n_inputs ~max_evals cs =
  match
    solve_verdict ?rng ?stats ?deadline ?mode ?memo ?seed ~n_inputs
      ~max_evals cs
  with
  | V_sat m -> Some m
  | V_unsat | V_unknown -> None

(* Enumerate up to [limit] distinct values of [e] consistent with [cs]
   (value-set sampling for indirect control transfers). *)
let enumerate ?(rng = Util.Rng.create 43) ?stats ?(deadline = 0.0) ?mode
    ~n_inputs ~max_evals ~limit cs e =
  let stats = match stats with Some s -> s | None -> make_stats () in
  let found = ref [] in
  let rec go excluded k =
    (* poll the wall budget between restarts: each nested solve re-checks on
       entry, but the exclusion-constraint rebuild and the concrete
       evaluation below are outside any solver deadline stride *)
    if k = 0 || hit_deadline deadline then ()
    else
      let cs' =
        List.map (fun v -> { cond = Expr.bin Expr.Eq e (Expr.Const v); want = false })
          excluded
        @ cs
      in
      match solve ~rng ~stats ~deadline ?mode ~n_inputs ~max_evals cs' with
      | None -> ()
      | Some m ->
        let v = (Expr.evaluator ~input:(input_of_model m)) e in
        found := (v, m) :: !found;
        go (v :: excluded) (k - 1)
  in
  go [] limit;
  List.rev !found

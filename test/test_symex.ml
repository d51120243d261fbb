(* Tests for the symbolic-execution stack: expression semantics vs. the
   concrete machine, solver soundness, and end-to-end attacks (DSE cracks
   native targets; the symbolic stepper agrees with concrete execution on
   obfuscated chains). *)

module E = Symex.Expr

(* --- expression evaluation ------------------------------------------------ *)

let all_binops =
  [ E.Add; E.Sub; E.Mul; E.Udiv; E.Urem; E.Sdiv; E.Srem; E.And; E.Or; E.Xor;
    E.Shl; E.Shr; E.Sar; E.Eq; E.Ult; E.Slt; E.Ule; E.Sle; E.Mulhi_u;
    E.Mulhi_s ]

let all_unops =
  [ E.Not; E.Neg; E.Bool_not ]
  @ List.concat_map
      (fun w -> [ E.Low (w, false); E.Low (w, true) ])
      X86.Isa.[ W8; W16; W32; W64 ]

let edge_consts = [ 0L; 1L; -1L; 0x80L; Int64.min_int; Int64.max_int ]

(* The memory [Load]s read: one mapped page whose last 8 bytes hold a
   pattern, followed by an unmapped one, so loads near [load_base + 8]
   straddle the boundary. *)
let load_base = 0x1FF8L

let load_mem_base =
  let m = Machine.Memory.create () in
  Machine.Memory.map m 0x1000L 4096;
  Machine.Memory.write m load_base 8 0x8877665544332211L;
  m

let gen_expr_conc =
  (* random expression over 2 input bytes, paired evaluation *)
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then
      oneof
        [ map (fun v -> E.Const (Int64.of_int v)) int;
          map (fun v -> E.Const v) (oneofl edge_consts);
          oneofl [ E.Input 0; E.Input 1 ] ]
    else
      let sub = go (depth - 1) in
      (* an address near [load_base]: some bytes mapped, some not *)
      let addr =
        map
          (fun e ->
             E.Raw.bin E.Add (E.Const load_base)
               (E.Raw.bin E.And e (E.Const 15L)))
          sub
      in
      frequency
        [ (6, let* a = sub in
            let* b = sub in
            let* op = oneofl all_binops in
            return (E.Raw.bin op a b));
          (3, let* a = sub in
            let* op = oneofl all_unops in
            return (E.Raw.un op a));
          (1, let* c = sub in
            let* t = sub in
            let* f = sub in
            return (E.Raw.ite c t f));
          (1, let* writes =
                list_size (int_bound 2)
                  (triple addr sub (oneofl [ 1; 2; 4; 8 ]))
            in
            let* a = addr in
            let* size = oneofl [ 1; 2; 4; 8 ] in
            return (E.load { E.base = load_mem_base; writes } a size)) ]
  in
  go 4

(* The tree evaluator, the memoized one and the compiled program agree. *)
let evals_agree e ~input =
  let tree = E.eval ~input e in
  let memo = (E.evaluator ~input) e in
  let comp = E.compile [ e ] in
  E.run comp ~input;
  tree = memo && tree = E.slot comp comp.E.roots.(0)

let prop_eval_matches_compiled =
  QCheck.Test.make ~name:"compiled eval = tree eval" ~count:500
    QCheck.(pair (make gen_expr_conc) (pair (int_bound 255) (int_bound 255)))
    (fun (e, (b0, b1)) ->
       evals_agree e ~input:(fun i -> if i = 0 then b0 else b1))

(* Every operator over every pair of sign-edge constants, fed through
   inputs so the compiled program cannot see them as constants: this covers
   the zero divisors and [min_int / -1] that random trees rarely draw. *)
let test_eval_edges () =
  let hidden c =
    E.Raw.bin E.Xor (E.Raw.bin E.Xor (E.Const c) (E.Input 0)) (E.Input 0)
  in
  let check e =
    Alcotest.(check bool) (Format.asprintf "%a" E.pp e) true
      (evals_agree e ~input:(fun _ -> 0x5A))
  in
  List.iter
    (fun x ->
       List.iter (fun op -> check (E.Raw.un op (hidden x))) all_unops;
       List.iter
         (fun y ->
            List.iter (fun op -> check (E.Raw.bin op (hidden x) (hidden y)))
              all_binops)
         edge_consts)
    edge_consts

(* The compiled sweep allocates nothing on the common node kinds. *)
let test_run_allocation_free () =
  let i0 = E.Input 0 and i1 = E.Input 1 in
  let b = E.Raw.bin in
  let x = b E.Xor (b E.Add i0 (E.Const 3L)) (b E.Sub i1 (E.Const (-1L))) in
  let y = b E.Or (b E.And x (E.Const 0xF0L)) (b E.Shl i1 (E.Const 4L)) in
  let z = b E.Shr y (E.Const 2L) in
  let roots =
    [ E.Raw.ite (b E.Eq z (E.Const 5L)) x y;
      E.Raw.ite (b E.Ult x z) (b E.Slt y (E.Const (-3L))) z ]
  in
  let comp = E.compile roots in
  let input i = if i = 0 then 0x5A else 0xC3 in
  E.run comp ~input;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do E.run comp ~input done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 1000 runs" 0.0 words

let prop_solver_sound =
  QCheck.Test.make ~name:"solver models satisfy constraints" ~count:200
    QCheck.(make gen_expr_conc)
    (fun e ->
       let cs = [ { Symex.Solver.cond = e; want = true } ] in
       match Symex.Solver.solve ~n_inputs:2 ~max_evals:70000 cs with
       | Some m -> Symex.Solver.check m cs
       | None -> true)

let test_solver_finds_eq () =
  (* in[0] ^ 0x5A == 0x33 *)
  let e =
    E.bin E.Eq (E.bin E.Xor (E.Input 0) (E.Const 0x5AL)) (E.Const 0x33L)
  in
  match Symex.Solver.solve ~n_inputs:1 ~max_evals:1000
          [ { Symex.Solver.cond = e; want = true } ]
  with
  | Some m -> Alcotest.(check int) "x" (0x5A lxor 0x33) m.(0)
  | None -> Alcotest.fail "no model"

let test_solver_unsat () =
  let e = E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 1L)) (E.Const 7L) in
  Alcotest.(check bool) "unsat" true
    (Symex.Solver.solve ~n_inputs:1 ~max_evals:1000
       [ { Symex.Solver.cond = e; want = true } ]
     = None)

(* --- scored-model table ------------------------------------------------------- *)

(* A query over [n] input bytes: one to three comparisons of random
   expressions whose leaves are those bytes and small constants. *)
let gen_query n =
  let open QCheck.Gen in
  let rec go depth =
    if depth = 0 then
      oneof
        [ map (fun i -> E.Input i) (int_bound (n - 1));
          map (fun v -> E.Const (Int64.of_int v)) (int_bound 300) ]
    else
      let* a = go (depth - 1) in
      let* b = go (depth - 1) in
      let* op = oneofl [ E.Add; E.Sub; E.Mul; E.Xor; E.And; E.Or; E.Shr ] in
      return (E.Raw.bin op a b)
  in
  list_size (int_range 1 3)
    (let* a = go 2 in
     let* b = go 2 in
     let* op = oneofl [ E.Eq; E.Ult; E.Ule; E.Slt; E.Sle ] in
     let* want = bool in
     return { Symex.Solver.cond = E.Raw.bin op a b; want })

(* A sequence of models with many repeats: 48 draws from a pool of 8,
   whose bytes come from a small alphabet, so 2- and 3-byte models often
   share a table slot. *)
let gen_table_case =
  let open QCheck.Gen in
  let* n = oneofl [ 1; 2; 3; 8 ] in
  let* cs = gen_query n in
  let* pool =
    array_repeat 8
      (array_repeat n (oneofl [ 0; 1; 2; 3; 0x80; 0xff ]))
  in
  let* picks = list_repeat 48 (int_bound 7) in
  return (n, cs, List.map (fun i -> pool.(i)) picks)

let print_table_case (n, cs, ms) =
  Printf.sprintf "%d bytes, %s; models %s" n
    (String.concat " && "
       (List.map
          (fun c ->
             Format.asprintf "%s(%a)" (if c.Symex.Solver.want then "" else "!")
               E.pp c.Symex.Solver.cond)
          cs))
    (String.concat " "
       (List.map
          (fun m ->
             String.concat "," (Array.to_list (Array.map string_of_int m)))
          ms))

(* Every [eval] answer equals a table-less score of the same model on a
   second compile of the query.  A 1-byte query runs once per distinct
   model; an 8-byte one bypasses the table and runs every time. *)
let prop_scored_table ?(count = 300) eval =
  QCheck.Test.make ~name:"scored-model table = fresh score" ~count
    (QCheck.make ~print:print_table_case gen_table_case)
    (fun (n, cs, ms) ->
       let module S = Symex.Solver in
       let q = S.compile_query cs and fresh = S.compile_query cs in
       let stats = S.make_stats () in
       let agree =
         List.for_all
           (fun m ->
              let pen = S.score fresh m in
              eval ~stats q m = (pen = 0, pen))
           ms
       in
       let distinct = List.length (List.sort_uniq compare ms) in
       agree
       && (match n with
           | 1 -> stats.S.runs = distinct
           | 8 -> stats.S.runs = List.length ms
           | _ -> stats.S.runs >= distinct))

let prop_scored_table_matches_score =
  prop_scored_table Symex.Solver.eval_query

(* Seeded fault: a slot that answers without comparing its stored key, so
   a model returns the score of whichever model last filled its slot.  The
   property must find a counterexample. *)
let test_table_property_catches_keyless_slot () =
  let module S = Symex.Solver in
  let eval ~stats q m =
    let k = S.model_key m in
    let s = S.key_slot k in
    if k >= 0 && q.S.scored_keys.(s) >= 0 then
      let pen = q.S.scored_pens.(s) in
      (pen = 0, pen)
    else begin
      stats.S.runs <- stats.S.runs + 1;
      let pen = S.score q m in
      if k >= 0 then begin
        q.S.scored_keys.(s) <- k;
        q.S.scored_pens.(s) <- pen
      end;
      (pen = 0, pen)
    end
  in
  match
    QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |])
      (prop_scored_table ~count:2000 eval)
  with
  | () -> Alcotest.fail "a slot that ignores its key went unnoticed"
  | exception QCheck.Test.Test_fail _ -> ()

(* The verdict-only evaluation against [eval_query] on a second compile of
   the query, over a random mix of verdict-only and scoring calls: each
   verdict equals [fst (eval_query ...)], each scoring call still returns a
   table-less score (a slot marked "penalty unknown" is never answered
   from), and after the same sequence both tables hold the same keys. *)
let prop_verdict_table ?(count = 300) verdict =
  QCheck.Test.make ~name:"verdict-only eval = fst eval_query" ~count
    (QCheck.make
       ~print:(fun (c, _) -> print_table_case c)
       QCheck.Gen.(pair gen_table_case (list_repeat 48 bool)))
    (fun ((_, cs, ms), only) ->
       let module S = Symex.Solver in
       let q = S.compile_query cs and r = S.compile_query cs in
       let fresh = S.compile_query cs in
       let stats = S.make_stats () and rstats = S.make_stats () in
       List.for_all2
         (fun m verdict_only ->
            let want = S.eval_query ~stats:rstats r m in
            if verdict_only then verdict ~stats q m = fst want
            else
              let pen = S.score fresh m in
              S.eval_query ~stats q m = want && want = (pen = 0, pen))
         ms only
       && q.S.scored_keys = r.S.scored_keys
       && stats.S.evals = rstats.S.evals)

let prop_verdict_table_matches_eval_query =
  prop_verdict_table Symex.Solver.eval_verdict

(* Seeded fault: each item's end index one short, so item [j] is checked
   before its own root has run and reads the slot the previous model left.
   The property must find a counterexample. *)
let test_verdict_property_catches_short_end () =
  let module S = Symex.Solver in
  let verdict ~stats q m =
    S.eval_verdict ~stats { q with S.ends = Array.map pred q.S.ends } m
  in
  match
    QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |])
      (prop_verdict_table ~count:2000 verdict)
  with
  | () -> Alcotest.fail "an end index one short went unnoticed"
  | exception QCheck.Test.Test_fail _ -> ()

(* The serial pipeline spends a quarter of its budget on local search over
   a 1-byte space, then sweeps all 256 values: the table leaves the
   evaluation count as it was, but no input byte is run twice. *)
let test_unsat_byte_runs_once_per_value () =
  let module S = Symex.Solver in
  let e = E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 1L)) (E.Const 7L) in
  let stats = S.make_stats () in
  let v =
    S.solve_verdict ~stats ~mode:S.Pipeline ~n_inputs:1 ~max_evals:2000
      [ { S.cond = e; want = true } ]
  in
  Alcotest.(check bool) "unsat" true (v = S.V_unsat);
  Alcotest.(check int) "evals" 759 stats.S.evals;
  Alcotest.(check bool)
    (Printf.sprintf "runs %d <= 256" stats.S.runs)
    true (stats.S.runs <= 256)

(* --- node identity ----------------------------------------------------------- *)

(* The nodes reachable from [roots] that [first] accepts; [first e]
   records [e] and says whether it is new, so each key is visited once. *)
let reachable first roots =
  let acc = ref [] in
  let rec go e =
    if first e then begin
      acc := e :: !acc;
      match e with
      | E.Const _ | E.Input _ -> ()
      | E.Bin (_, a, b, _) -> go a; go b
      | E.Un (_, a, _) -> go a
      | E.Ite (c, t, f, _) -> go c; go t; go f
      | E.Load (m, a, _, _) ->
        go a;
        List.iter (fun (wa, wv, _) -> go wa; go wv) m.E.writes
    end
  in
  List.iter go roots;
  !acc

(* One node per [Phys] key reachable from [roots]. *)
let distinct_nodes roots =
  let seen = E.Phys_tbl.create 1024 in
  reachable
    (fun e ->
       (not (E.Phys_tbl.mem seen e)) && (E.Phys_tbl.replace seen e (); true))
    roots

(* a 20k-deep chain whose nodes differ only at the bottom *)
let deep_chain () =
  let x = ref (E.Input 0) in
  for _ = 1 to 20_000 do
    x := E.bin E.Add !x (E.Input 1)
  done;
  [ !x ]

(* A leaf allocated here, at run time.  OCaml shares a literal leaf such
   as [E.Const 3L] statically, so every use of it is one node; DSE builds
   its leaves as it steps, so equal leaves are distinct nodes. *)
let fresh_leaf = function
  | E.Const v -> E.Const (Sys.opaque_identity v)
  | E.Input i -> E.Input (Sys.opaque_identity i)
  | (E.Bin _ | E.Un _ | E.Ite _ | E.Load _) as e -> e

(* the shape DSE builds: a loop-carried byte state, and one branch
   condition per iteration over the shared, growing prefix.  [leaf] is
   applied to every leaf: [fresh_leaf] gives the engine's run-time
   leaves. *)
let dse_dag ?(leaf = Fun.id) () =
  let x = ref (E.un (E.Low (X86.Isa.W8, false)) (leaf (E.Input 0))) in
  let conds = ref [] in
  for k = 1 to 2_000 do
    let v = !x in
    let stepped =
      E.bin E.Xor
        (E.bin E.Add (E.bin E.Mul v (leaf (E.Const 3L)))
           (leaf (E.Const (Int64.of_int k))))
        (E.bin E.Shr v (leaf (E.Const 2L)))
    in
    let c = E.bin E.Ult v (leaf (E.Const 100L)) in
    x :=
      E.bin E.And (E.ite c stepped (E.bin E.Sub stepped v))
        (leaf (E.Const 0xFFL));
    conds := c :: !conds
  done;
  !x :: !conds

let test_phys_hash_quality () =
  List.iter
    (fun (name, roots) ->
       let nodes = distinct_nodes roots in
       let hashes = Hashtbl.create 1024 in
       List.iter (fun e -> Hashtbl.replace hashes (E.Phys.hash e) ()) nodes;
       let n = List.length nodes and h = Hashtbl.length hashes in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d distinct hashes over %d nodes" name h n)
         true (100 * h >= 99 * n))
    [ ("20k-deep Add chain", deep_chain ()); ("DSE-shaped DAG", dse_dag ()) ]

(* The keys [Phys] replaced: every node, leaves included, by [==]. *)
module Old_phys_tbl = Hashtbl.Make (struct
    type t = E.t
    let equal = ( == )
    let hash = E.Phys.hash
  end)

(* Hash-table chains on the DAG DSE builds, with its run-time leaves.  Keyed
   physically, every allocation of [Const 3L] is a key of its own with one
   hash, so they all share one chain; keyed by value they are one key. *)
let test_phys_tbl_buckets () =
  let physical = Old_phys_tbl.create 1024 in
  let nodes =
    reachable
      (fun e ->
         (not (Old_phys_tbl.mem physical e))
         && (Old_phys_tbl.replace physical e (); true))
      (dse_dag ~leaf:fresh_leaf ())
  in
  let keyed = E.Phys_tbl.create 1024 in
  List.iter (fun e -> E.Phys_tbl.replace keyed e ()) nodes;
  let bound = 8 in
  let longest = (E.Phys_tbl.stats keyed).Hashtbl.max_bucket_length in
  let old_longest = (Old_phys_tbl.stats physical).Hashtbl.max_bucket_length in
  Alcotest.(check bool)
    (Printf.sprintf "Phys_tbl: longest chain %d <= %d" longest bound)
    true (longest <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "physical keys: longest chain %d > %d" old_longest bound)
    true (old_longest > bound)

let test_phys_tbl_is_physical () =
  let in0 = E.Input 0 in
  let c = E.Const (Sys.opaque_identity 7L) in
  let a = E.Raw.bin E.Add in0 c in
  let b = E.Raw.bin E.Add in0 c in
  (* a copy keeps the stamp: same hash, still a different key *)
  let a' : E.t = Marshal.from_string (Marshal.to_string a []) 0 in
  let show = Format.asprintf "%a" E.pp in
  Alcotest.(check bool) "one expression, three nodes" true
    (show a = show b && a = a' && a != b && a != a');
  Alcotest.(check int) "a copy shares its stamp" (E.Phys.hash a) (E.Phys.hash a');
  let tbl = E.Phys_tbl.create 8 in
  List.iteri (fun i e -> E.Phys_tbl.replace tbl e i) [ a; b; a' ];
  Alcotest.(check int) "three keys" 3 (E.Phys_tbl.length tbl);
  Alcotest.(check (list (option int))) "each key finds its own binding"
    [ Some 0; Some 1; Some 2 ]
    (List.map (E.Phys_tbl.find_opt tbl) [ a; b; a' ]);
  (* leaves are keyed by value: [c] and a fresh [Const 7L] are one key *)
  let c' = E.Const (Sys.opaque_identity 7L) in
  let leaves = E.Phys_tbl.create 8 in
  List.iter (fun e -> E.Phys_tbl.replace leaves e ()) [ c; c' ];
  Alcotest.(check bool) "two payload-equal leaves are one key" true
    (c != c' && E.Phys_tbl.length leaves = 1);
  let comp = E.compile [ a; b; a' ] in
  (* a, b, a', and one slot each for in0 and c: a' brought its own copies
     of the leaves, which share their slots *)
  Alcotest.(check int) "one slot per key" 5 (Array.length comp.E.nodes)

let test_compile_one_slot_per_node () =
  List.iter
    (fun (name, roots) ->
       Alcotest.(check int) name
         (List.length (distinct_nodes roots))
         (Array.length (E.compile roots).E.nodes))
    [ ("20k-deep Add chain", deep_chain ()); ("DSE-shaped DAG", dse_dag ());
      ("DSE-shaped DAG, run-time leaves", dse_dag ~leaf:fresh_leaf ()) ]

(* --- leaves keyed by value ------------------------------------------------ *)

(* One node per leaf value; input byte 2 is out of range at [n_inputs:2],
   so canonicalization pins it. *)
let shared_leaves =
  Array.of_list
    ([ E.Input 0; E.Input 1; E.Input 2 ]
     @ List.map (fun v -> E.Const v) [ 0L; 1L; 5L; 0xFFL; -1L ])

(* A random DAG over [shared_leaves]: each new node draws its children from
   the nodes built so far, so subterms are shared.  With [fresh] every
   leaf is allocated where it is drawn, as DSE does, so equal leaves are
   distinct nodes; otherwise each value is one node. *)
let gen_leaf_dag st =
  let fresh = Random.State.bool st in
  let n = 4 + Random.State.int st 28 in
  let nodes = Array.make n E.zero in
  let pick i = nodes.(Random.State.int st i) in
  let pick_of l = List.nth l (Random.State.int st (List.length l)) in
  for i = 0 to n - 1 do
    nodes.(i) <-
      (if i < 2 || Random.State.int st 3 = 0 then
         let l = shared_leaves.(Random.State.int st (Array.length shared_leaves)) in
         if fresh then fresh_leaf l else l
       else
         match Random.State.int st 6 with
         | 0 -> E.Raw.un (pick_of all_unops) (pick i)
         | 1 -> E.Raw.ite (pick i) (pick i) (pick i)
         | _ -> E.Raw.bin (pick_of all_binops) (pick i) (pick i))
  done;
  let cs =
    List.init (1 + Random.State.int st 3) (fun _ ->
        { Symex.Solver.cond = pick n; want = Random.State.bool st })
  in
  let input = Array.init 3 (fun _ -> Random.State.int st 256) in
  (fresh, Array.to_list nodes, cs, input)

(* A copier: the same DAG node for node, every leaf reallocated.  Each
   physical node maps to one new node, so sharing, and with it every [==]
   fold, is kept. *)
let realloc_leaves () =
  let interior = E.Phys_tbl.create 64 in
  let leaves = ref [] in
  let rec go e =
    match e with
    | E.Const _ | E.Input _ ->
      (match List.assq_opt e !leaves with
       | Some e' -> e'
       | None ->
         let e' = fresh_leaf e in
         leaves := (e, e') :: !leaves;
         e')
    | E.Bin _ | E.Un _ | E.Ite _ | E.Load _ ->
      (match E.Phys_tbl.find_opt interior e with
       | Some e' -> e'
       | None ->
         let e' =
           match e with
           | E.Bin (op, a, b, _) -> E.Raw.bin op (go a) (go b)
           | E.Un (op, a, _) -> E.Raw.un op (go a)
           | E.Ite (c, t, f, _) -> E.Raw.ite (go c) (go t) (go f)
           | E.Const _ | E.Input _ | E.Load _ -> assert false   (* no loads here *)
         in
         E.Phys_tbl.replace interior e e';
         e')
  in
  go

let prop_leaf_copies_agree =
  QCheck.Test.make ~name:"reallocated leaves: same digests and values"
    ~count:300
    (QCheck.make
       ~print:(fun (fresh, _, cs, input) ->
           Format.asprintf "fresh=%b input=[%d;%d;%d] %a" fresh input.(0)
             input.(1) input.(2)
             (Format.pp_print_list (fun f c ->
                  Format.fprintf f "%a:%b" E.pp c.Symex.Solver.cond
                    c.Symex.Solver.want))
             cs)
       gen_leaf_dag)
    (fun (_, nodes, cs, input) ->
       let copy = realloc_leaves () in
       let nodes' = List.map copy nodes in
       let cs' =
         List.map
           (fun c -> { c with Symex.Solver.cond = copy c.Symex.Solver.cond })
           cs
       in
       let canon cs =
         Option.map
           (fun c ->
              Symex.Solver.(c.cq_digest, List.sort compare c.cq_renaming,
                            c.cq_n_canon))
           (Symex.Solver.canonicalize ~n_inputs:2 cs)
       in
       let input i = input.(i) in
       let values nodes =
         let ev = E.evaluator ~input in
         let comp = E.compile nodes in
         E.run comp ~input;
         ( List.map ev nodes,
           Array.to_list (Array.map (E.slot comp) comp.E.roots) )
       in
       let tree = List.map (E.eval ~input) nodes in
       let memo, compiled = values nodes and memo', compiled' = values nodes' in
       canon cs = canon cs'
       && Symex.Solver.concrete_digests cs = Symex.Solver.concrete_digests cs'
       && memo = tree && memo' = tree && compiled = tree && compiled' = tree)

(* --- symbolic stepper vs concrete machine ---------------------------------- *)

(* run both engines on a corpus function for the same input; RAX must agree *)
let sym_matches_concrete ?config (t : Minic.Randomfuns.t) input =
  let img = Minic.Codegen.compile t.prog in
  let img =
    match config with
    | None -> img
    | Some config ->
      (Ropc.Rewriter.rewrite img ~functions:[ "target" ] ~config).Ropc.Rewriter.image
  in
  let n_inputs = Int64.to_int (Int64.add (Int64.div (Int64.of_int 63) 8L) 1L) in
  ignore n_inputs;
  let n_inputs = t.params.Minic.Randomfuns.input_size in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs } in
  let ctx =
    Symex.Engine.make_ctx ~goal:Symex.Engine.G_secret
      ~budget:{ Symex.Engine.default_budget with wall_seconds = 60.0 } tgt
  in
  let witness = Array.init n_inputs (fun i ->
      Int64.to_int (Int64.logand (Int64.shift_right_logical input (8 * i)) 0xFFL))
  in
  let st, _, outcome = Symex.Engine.concolic_path ctx witness in
  match outcome with
  | `Halt ->
    let ev = E.evaluator ~input:(Symex.Solver.input_of_model witness) in
    let sym = ev (Symex.Sym_state.get st X86.Isa.RAX) in
    let conc = (Runner.call_exn ~fuel:200_000_000 img ~func:"target" ~args:[ input ]).Runner.rax in
    sym = conc
  | `Fault _ -> false
  | `Fuel -> true   (* inconclusive: P3-heavy chains can outlast the budget *)

let corpus_lazy = lazy (Minic.Randomfuns.corpus ())

let prop_sym_concrete_native =
  QCheck.Test.make ~name:"symbolic = concrete (native)" ~count:25
    QCheck.(pair (int_range 0 71) (map Int64.of_int int))
    (fun (idx, input) ->
       let t = List.nth (Lazy.force corpus_lazy) idx in
       sym_matches_concrete t (Int64.logand input t.Minic.Randomfuns.input_mask))

let prop_sym_concrete_rop =
  QCheck.Test.make ~name:"symbolic = concrete (ROP+P1+P3)" ~count:10
    QCheck.(pair (int_range 0 71) (map Int64.of_int int))
    (fun (idx, input) ->
       let t = List.nth (Lazy.force corpus_lazy) idx in
       sym_matches_concrete ~config:(Ropc.Config.rop_k 0.25) t
         (Int64.logand input t.Minic.Randomfuns.input_mask))

(* --- end-to-end attacks ----------------------------------------------------- *)

let scaled_fun ~input_size ~control_index =
  Minic.Randomfuns.generate
    (Minic.Randomfuns.default_params ~loop_size:5 ~seed:1 ~input_size
       ~control_index ())

let test_dse_cracks_native () =
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let budget = { Symex.Engine.default_budget with wall_seconds = 10.0 } in
  let r = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt in
  match r.Symex.Engine.secret_input with
  | Some m ->
    let got = (Runner.call_exn img ~func:"target" ~args:[ Int64.of_int m.(0) ]).Runner.rax in
    Alcotest.(check int64) "accepted" 1L got
  | None -> Alcotest.fail "DSE failed on an unobfuscated 1-byte target"

let test_se_cracks_native () =
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let budget = { Symex.Engine.default_budget with wall_seconds = 10.0 } in
  let r = Symex.Engine.se ~goal:Symex.Engine.G_secret ~budget tgt in
  Alcotest.(check bool) "found" true (r.Symex.Engine.secret_input <> None)

let test_dse_coverage_native () =
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:5 ~seed:2 ~input_size:1
         ~control_index:1 ~point_test:false ~coverage_probes:true ())
  in
  let img = Minic.Codegen.compile t.prog in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let budget = { Symex.Engine.default_budget with wall_seconds = 10.0 } in
  let r = Symex.Engine.dse ~goal:Symex.Engine.G_coverage ~budget tgt in
  Alcotest.(check bool)
    (Printf.sprintf "covered %d/%d" (Hashtbl.length r.Symex.Engine.covered) t.n_probes)
    true
    (Hashtbl.length r.Symex.Engine.covered >= t.n_probes - 1)

let test_dse_slowed_by_rop () =
  (* the headline effect: a target DSE cracks fast natively resists when
     ROP-encoded with P1+P3 *)
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let budget = { Symex.Engine.default_budget with wall_seconds = 3.0 } in
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let r_native = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt in
  Alcotest.(check bool) "native cracked" true (r_native.Symex.Engine.secret_input <> None);
  let rw =
    Ropc.Rewriter.rewrite img ~functions:[ "target" ]
      ~config:(Ropc.Config.rop_k 1.0)
  in
  let tgtr =
    { Symex.Engine.img = rw.Ropc.Rewriter.image; func = "target"; n_inputs = 1 }
  in
  let r_rop = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgtr in
  (* either not cracked, or took markedly longer *)
  Alcotest.(check bool) "rop resists or is much slower" true
    (r_rop.Symex.Engine.secret_input = None
     || r_rop.Symex.Engine.time > 5.0 *. r_native.Symex.Engine.time)

(* The benchmark's attack-dse cell set (perfbench/attack.ml), run once:
   DSE G_secret on 6 RandomFuns targets x native/rop0.25/rop0.5+oc under
   count budgets, a fresh solver memo per cell.  Its totals are
   deterministic, so they are gated exactly: any change to the engine, the
   solver or the expression layer that moves them changes what the attacker
   does, not just how fast.  The cell set runs once for both tests below;
   [portfolio] runs it with the solver's Portfolio mode instead. *)
let attack_dse_cells ~portfolio =
  let module E = Symex.Engine in
  let module Sv = Symex.Solver in
  let budget =
    { E.default_budget with
      E.wall_seconds = 600.0;
      max_states = 8;
      total_solver_evals = 2_000;
      portfolio }
  in
  let states = ref 0 and instrs = ref 0 and secrets = ref 0 in
  let evals = ref 0 and runs = ref 0 and hits = ref 0 in
  List.iter
    (fun (ctrl, tseed) ->
       let t =
         Minic.Randomfuns.generate
           (Minic.Randomfuns.default_params ~seed:tseed ~input_size:1
              ~loop_size:3 ~control_index:ctrl ())
       in
       let img = Minic.Codegen.compile t.Minic.Randomfuns.prog in
       let ctx = Ropc.Rewriter.prepare img ~functions:[ "target" ] in
       List.iter
         (fun cfg ->
            let img =
              if cfg = "native" then img
              else
                let config =
                  Result.get_ok (Serve.Oneshot.config_of_name ~seed:1 cfg)
                in
                (Ropc.Rewriter.rewrite_with ctx ~config).Ropc.Rewriter.image
            in
            let memo = Sv.Memo.create () in
            Sv.set_memo (Some memo);
            let r =
              Fun.protect ~finally:(fun () -> Sv.set_memo None) (fun () ->
                  E.dse ~goal:E.G_secret ~budget
                    { E.img; func = "target"; n_inputs = 1 })
            in
            states := !states + r.E.stats.E.states;
            instrs := !instrs + r.E.stats.E.instrs;
            if r.E.secret_input <> None then incr secrets;
            evals := !evals + r.E.stats.E.solver.Sv.evals;
            runs := !runs + r.E.stats.E.solver.Sv.runs;
            hits := !hits + memo.Sv.Memo.hits)
         [ "native"; "rop0.25"; "rop0.5+oc" ])
    [ (0, 1); (0, 2); (0, 3); (1, 1); (1, 2); (1, 3) ];
  [ ("symex.states", !states); ("symex.instrs", !instrs);
    ("symex.secrets_found", !secrets); ("solver.evals", !evals);
    ("solver.memo_hits", !hits); ("solver.runs", !runs) ]

let attack_dse_totals = lazy (attack_dse_cells ~portfolio:false)

let test_attack_dse_exact_counts () =
  let totals = Lazy.force attack_dse_totals in
  Alcotest.(check (list (pair string int))) "attack-dse counts"
    [ ("symex.states", 41); ("symex.instrs", 510636);
      ("symex.secrets_found", 4); ("solver.evals", 33503);
      ("solver.memo_hits", 4) ]
    (List.remove_assoc "solver.runs" totals)

(* The compiled runs behind those evaluations: each (query, model) pair is
   scored once, so a search that proposes a model again costs no run. *)
let test_attack_dse_exact_runs () =
  Alcotest.(check int) "attack-dse compiled runs" 15767
    (List.assoc "solver.runs" (Lazy.force attack_dse_totals))

(* The strategy ledger of the same cells in Portfolio mode: on these
   1-byte targets, domain inversion settles every race they start. *)
let test_attack_dse_portfolio_ledger () =
  let module Sv = Symex.Solver in
  let win_counts () = List.map (fun (n, c) -> (n, !c)) Sv.m_wins in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let races0 = !Sv.m_races and wins0 = win_counts () in
  ignore (attack_dse_cells ~portfolio:true);
  Alcotest.(check (list (pair string int))) "attack-dse portfolio wins"
    [ ("races", 117); ("inversion", 117); ("interval", 0);
      ("enumeration", 0); ("local_search", 0) ]
    (("races", !Sv.m_races - races0)
     :: List.map2 (fun (n, w) (_, w0) -> (n, w - w0)) (win_counts ()) wins0)

(* --- one instruction: concrete machine vs symbolic stepper ------------------ *)

(* Both steppers are instances of Machine.Semantics.Make; from the same
   concrete registers and flags, one instruction must leave both in the same
   state.  Shifts cover every op, width and immediate count (a masked count
   of 0 must leave flags and destination alone; narrow rotates take the
   count mod the width).  A count in cl is also run with a symbolic cl, so
   the stepper's unknown-count path is checked against the machine too. *)

type one_case = {
  oc_instr : X86.Isa.instr;
  oc_regs : int64 array;                 (* by Isa.reg_index *)
  oc_flags : bool array;                 (* cf zf sf of pf *)
}

(* Small values too, so shifted-out bits and zero results are common, and
   operands at the signed-range and overflow edges of each width, so
   products land on both sides of overflowing. *)
let gen_reg_value =
  let open QCheck.Gen in
  frequency
    [ (2, map Int64.of_int int);
      (2, map Int64.of_int (int_bound 300));
      (1, oneofl
            [ 0L; 1L; -1L; 11L; 12L; 0x7FL; -0x80L; 0xB5L; 0xB6L; 0x7FFFL;
              -0x8000L; 0xB504L; 0xB505L; 0x7FFFFFFFL; -0x80000000L;
              0xB504F333L; 0xB504F334L; Int64.max_int; Int64.min_int ]) ]

let gen_one_case =
  let open QCheck.Gen in
  let open X86.Isa in
  let reg = map reg_of_index (int_bound 15) in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let cc = map cc_of_index (int_bound 15) in
  let shift =
    let* o = oneofl [ Shl; Shr; Sar; Rol; Ror ] in
    let* w = width in
    let* r = reg in
    let* c =
      frequency [ (4, map (fun n -> S_imm n) (int_bound 63)); (1, return S_cl) ]
    in
    return (Shift (o, w, Reg r, c))
  in
  let other =
    oneof
      [ (let* o = oneofl [ Add; Adc; Sub; Sbb; Cmp; And; Or; Xor; Test ] in
         let* w = width in
         let* d = reg in
         let* s = reg in
         return (Alu (o, w, Reg d, Reg s)));
        (let* o = oneofl [ Neg; Not; Inc; Dec ] in
         let* w = width in
         let* d = reg in
         return (Unary (o, w, Reg d)));
        (let* w = width in
         let* d = reg in
         let* s = reg in
         return (Imul2 (w, d, Reg s)));
        (let* dw, sw = oneofl ext_combos in
         let* d = reg in
         let* s = reg in
         let* zx = bool in
         return
           (if zx then Movzx (dw, sw, d, Reg s) else Movsx (dw, sw, d, Reg s)));
        oneofl [ Lahf; Sahf ];
        (let* c = cc in
         let* d = reg in
         let* s = reg in
         return (Cmov (c, d, Reg s)));
        (let* c = cc in
         let* d = reg in
         return (Setcc (c, Reg d)));
        (let* w = width in
         let* a = reg in
         let* b = reg in
         return (Xchg (w, Reg a, Reg b)));
        (let* o = oneofl [ Mul; Imul1 ] in
         let* s = reg in
         return (MulDiv (o, Reg s))) ]
  in
  let* oc_instr = frequency [ (1, shift); (1, other) ] in
  let* oc_regs = array_repeat 16 gen_reg_value in
  let* oc_flags = array_repeat 5 bool in
  return { oc_instr; oc_regs; oc_flags }

let print_one_case c =
  let open X86.Isa in
  let width =
    match c.oc_instr with
    | Shift (_, w, _, _) | Alu (_, w, _, _) | Unary (_, w, _) | Imul2 (w, _, _)
    | Xchg (w, _, _) | Movzx (w, _, _, _) | Movsx (w, _, _, _) ->
      X86.Pp.width_name w ^ " "
    | _ -> ""
  in
  Printf.sprintf "%s%s regs=[%s] flags(cf zf sf of pf)=[%s]" width
    (X86.Pp.instr_str c.oc_instr)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%Lx") c.oc_regs)))
    (String.concat " " (Array.to_list (Array.map string_of_bool c.oc_flags)))

let one_case_code = 0x400000L

let code_memory instrs =
  let mem = Machine.Memory.create () in
  Machine.Memory.store_bytes mem one_case_code (X86.Encode.encode_list instrs);
  mem

(* cf zf sf of pf, the order of the flag arrays below *)
let all_flags = Symex.Sym_state.Step.all_flags

(* Rip, registers and flags after [instrs], one Ref-engine step each. *)
let concrete_steps instrs regs flags =
  let cpu = Machine.Cpu.create (code_memory instrs) in
  Machine.Cpu.set_rip cpu one_case_code;
  Array.iteri (fun i v -> Machine.Cpu.set cpu (X86.Isa.reg_of_index i) v) regs;
  (match flags with
   | [| cf; zf; sf; o_f; pf |] ->
     cpu.Machine.Cpu.cf <- cf; cpu.Machine.Cpu.zf <- zf;
     cpu.Machine.Cpu.sf <- sf; cpu.Machine.Cpu.o_f <- o_f;
     cpu.Machine.Cpu.pf <- pf
   | _ -> assert false);
  let t = Machine.Exec.make ~engine:Machine.Exec.Ref cpu in
  ignore (Machine.Exec.run ~fuel:(List.length instrs) t);
  let f = Machine.Cpu.flags cpu in
  ( Machine.Cpu.rip cpu,
    Array.init 16 (fun i -> Machine.Cpu.get cpu (X86.Isa.reg_of_index i)),
    [| f.cf; f.zf; f.sf; f.o_f; f.pf |] )

(* The same steps on the symbolic stepper: [(all stepped, rip, registers,
   flags)].  With [sym = Some r], the low byte of [r] is the input byte
   (holding the concrete byte) instead of a constant, every result is
   evaluated under that input, and a symbolic branch goes where its
   condition evaluates.  [after k st] runs after the [k]-th step. *)
let symbolic_steps ?(after = fun _ _ -> ()) ~sym instrs regs flags =
  let module S = Symex.Sym_state in
  let st = S.create (code_memory instrs) one_case_code in
  Array.iteri (fun i v -> S.set st (X86.Isa.reg_of_index i) (E.Const v)) regs;
  List.iteri
    (fun j fl -> S.set_flag st fl (if flags.(j) then E.one else E.zero))
    all_flags;
  let byte =
    match sym with
    | None -> 0
    | Some r ->
      let v = regs.(X86.Isa.reg_index r) in
      S.set st r (E.bin E.Or (E.Const (Int64.logand v (-256L))) (E.Input 0));
      Int64.to_int (Int64.logand v 0xFFL)
  in
  let ev = E.eval ~input:(fun _ -> byte) in
  let model =
    { S.toa = false; concretize = (fun _ _ -> None); on_write = (fun _ _ -> ()) }
  in
  let decode_cache = S.Rip_tbl.create 4 in
  let stepped =
    List.for_all Fun.id
      (List.mapi
         (fun k _ ->
            let outcome = S.step ~model ~decode_cache st in
            after k st;
            match outcome with
            | S.O_ok -> true
            | S.O_branch (cond, taken, fall) ->
              st.S.rip <- (if ev cond <> 0L then taken else fall);
              true
            | S.O_indirect _ | S.O_halt | S.O_fault _ -> false)
         instrs)
  in
  ( stepped,
    st.S.rip,
    Array.init 16 (fun i -> ev (S.get st (X86.Isa.reg_of_index i))),
    Array.of_list (List.map (fun fl -> ev (S.flag st fl) = 1L) all_flags) )

(* Registers and flags after one Ref-engine step. *)
let one_concrete c =
  let _, regs, flags = concrete_steps [ c.oc_instr ] c.oc_regs c.oc_flags in
  (regs, flags)

(* The same step on the symbolic stepper.  With [sym_cl], cl is the input
   byte (holding the concrete cl) instead of a constant. *)
let one_symbolic ~sym_cl c =
  let ok, _, regs, flags =
    symbolic_steps ~sym:(if sym_cl then Some X86.Isa.RCX else None)
      [ c.oc_instr ] c.oc_regs c.oc_flags
  in
  (ok, regs, flags)

let prop_one_instruction =
  QCheck.Test.make ~name:"concrete = symbolic, one instruction" ~count:4000
    (QCheck.make ~print:print_one_case gen_one_case)
    (fun c ->
       let regs, flags = one_concrete c in
       let agrees sym_cl =
         let ok, sregs, sflags = one_symbolic ~sym_cl c in
         ok && sregs = regs && sflags = flags
       in
       agrees false
       && (match c.oc_instr with
           | X86.Isa.Shift (_, _, _, X86.Isa.S_cl) -> agrees true
           | _ -> true))

(* Two code pages that differ only in bit 63 hold different instructions:
   one decode cache must decode each address on its own, so neither page
   runs the other's instruction. *)
let test_decode_cache_full_width () =
  let module S = Symex.Sym_state in
  let open X86.Isa in
  let lo = 0x400000L in
  let hi = Int64.logor lo Int64.min_int in
  let mem = Machine.Memory.create () in
  Machine.Memory.store_bytes mem lo
    (X86.Encode.encode_list [ Mov (W64, Reg RAX, Imm 1L) ]);
  Machine.Memory.store_bytes mem hi
    (X86.Encode.encode_list [ Mov (W64, Reg RAX, Imm 2L) ]);
  let model =
    { S.toa = false; concretize = (fun _ _ -> None); on_write = (fun _ _ -> ()) }
  in
  let decode_cache = S.Rip_tbl.create 8 in
  let rax_after rip =
    let st = S.create mem rip in
    match S.step ~model ~decode_cache st with
    | S.O_ok -> E.eval ~input:(fun _ -> 0) (S.get st RAX)
    | _ -> Alcotest.fail (Printf.sprintf "no step at 0x%Lx" rip)
  in
  let got = List.map rax_after [ lo; hi; lo; hi ] in
  Alcotest.(check (list int64)) "rax after each page's mov" [ 1L; 2L; 1L; 2L ]
    got;
  Alcotest.(check int) "cached decodes" 2 (S.Rip_tbl.length decode_cache)

(* --- two instructions: a flag writer, then a flag reader -------------------- *)

(* The symbolic stepper builds a flag's expression only when something
   reads it.  A writer followed by a reader checks the deferred flags at
   the reader, and the final state checks the ones nobody read, after the
   reader has written its own destination.  Registers come mostly from a
   pool of three, so the reader often overwrites the writer's
   destination. *)

type pair_case = {
  pc_instrs : X86.Isa.instr list;         (* writer; reader *)
  pc_regs : int64 array;
  pc_flags : bool array;
  pc_sym : X86.Isa.reg option;            (* its low byte is the input *)
}

let gen_pair_case =
  let open QCheck.Gen in
  let open X86.Isa in
  let reg =
    frequency
      [ (3, oneofl [ RAX; RCX; RDX ]); (1, map reg_of_index (int_bound 15)) ]
  in
  let width = oneofl [ W8; W16; W32; W64 ] in
  let cc = map cc_of_index (int_bound 15) in
  let writer =
    oneof
      [ (let* o = oneofl [ Add; Adc; Sub; Sbb; Cmp; And; Or; Xor; Test ] in
         let* w = width in
         let* d = reg in
         let* s = reg in
         return (Alu (o, w, Reg d, Reg s)));
        (let* o = oneofl [ Neg; Inc; Dec ] in
         let* w = width in
         let* d = reg in
         return (Unary (o, w, Reg d)));
        (let* w = width in
         let* d = reg in
         let* s = reg in
         return (Imul2 (w, d, Reg s)));
        (let* o = oneofl [ Mul; Imul1 ] in
         let* s = reg in
         return (MulDiv (o, Reg s))) ]
  in
  let reader =
    oneof
      [ (let* c = cc in
         let* d = reg in
         return (Setcc (c, Reg d)));
        (let* c = cc in
         let* d = reg in
         let* s = reg in
         return (Cmov (c, d, Reg s)));
        (let* o = oneofl [ Adc; Sbb ] in
         let* w = width in
         let* d = reg in
         let* s = reg in
         return (Alu (o, w, Reg d, Reg s)));
        (let* c = cc in
         return (Jcc (c, 16)));
        return Lahf ]
  in
  let* w = writer in
  let* r = reader in
  let* pc_regs = array_repeat 16 gen_reg_value in
  let* pc_flags = array_repeat 5 bool in
  let* pc_sym = frequency [ (1, return None); (1, map Option.some reg) ] in
  return { pc_instrs = [ w; r ]; pc_regs; pc_flags; pc_sym }

let print_pair_case c =
  Printf.sprintf "%s; sym=%s regs=[%s] flags(cf zf sf of pf)=[%s]"
    (String.concat "; "
       (List.map
          (fun i ->
             match i with
             | X86.Isa.Alu (_, w, _, _) | X86.Isa.Unary (_, w, _)
             | X86.Isa.Imul2 (w, _, _) ->
               X86.Pp.width_name w ^ " " ^ X86.Pp.instr_str i
             | _ -> X86.Pp.instr_str i)
          c.pc_instrs))
    (match c.pc_sym with Some r -> X86.Pp.reg_name r | None -> "-")
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%Lx") c.pc_regs)))
    (String.concat " " (Array.to_list (Array.map string_of_bool c.pc_flags)))

let prop_flag_pairs ?after () =
  QCheck.Test.make ~name:"concrete = symbolic, flag writer then reader"
    ~count:3000
    (QCheck.make ~print:print_pair_case gen_pair_case)
    (fun c ->
       let rip, regs, flags = concrete_steps c.pc_instrs c.pc_regs c.pc_flags in
       let ok, srip, sregs, sflags =
         symbolic_steps ?after ~sym:c.pc_sym c.pc_instrs c.pc_regs c.pc_flags
       in
       ok && srip = rip && sregs = regs && sflags = flags)

(* Seeded fault: flag formulas that re-read the destination register when
   forced, instead of the result the writer captured.  After the writer
   steps, its ZF, SF and PF are replaced by thunks that run the same
   formulas over whatever the destination holds when they are read.  The
   property must find a counterexample. *)
let test_pair_property_catches_stale_flags () =
  let module S = Symex.Sym_state in
  let open X86.Isa in
  let model =
    { S.toa = false; concretize = (fun _ _ -> None); on_write = (fun _ _ -> ()) }
  in
  let after k st =
    match
      if k = 0 then S.fetch (S.Rip_tbl.create 1) st.S.mem.S.base one_case_code
      else None
    with
    | Some ((Alu ((Add | Adc | Sub | Sbb | And | Or | Xor), w, Reg d, _)
            | Unary ((Neg | Inc | Dec), w, Reg d)), _)
    | Some (Imul2 (w, d, _), _) ->
      let stale fl =
        lazy
          (let scratch = S.copy st in
           S.Step.set_zsp { S.Symbolic.model; st = scratch } w
             (S.Symbolic.trunc w (S.get st d));
           S.flag scratch fl)
      in
      List.iter (fun fl -> S.set_flag_cell st fl (stale fl))
        Machine.Semantics.[ ZF; SF; PF ]
    | Some _ | None -> ()
  in
  match
    QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |])
      (prop_flag_pairs ~after ())
  with
  | () -> Alcotest.fail "flags that re-read their destination went unnoticed"
  | exception QCheck.Test.Test_fail _ -> ()

(* Concrete-address reads against the byte-wise rule: each byte is the
   newest write covering it, shifted into place, else the base image's,
   and an unmapped byte faults with the read's start address.  The model
   works over the generated write list, not over Sym_state's structures. *)

(* one mapped page, [0x10000, 0x11000), unmapped on both sides *)
let read_page_lo = 0x10000L

let read_base () =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem read_page_lo 4096;
  for i = 0 to 4095 do
    Machine.Memory.write_u8 mem (Int64.add read_page_lo (Int64.of_int i))
      ((i * 37) + 11)
  done;
  mem

(* Values are truncated to their write's width, as every store the
   stepper makes is; a symbolic write stores [in0 ^ v]. *)
let gen_read_case =
  let open QCheck.Gen in
  let size = oneofl [ 1; 2; 4; 8 ] in
  (* min_int: slots that wrap from max_int in the map's signed order *)
  let* centre = oneofl [ read_page_lo; 0x10800L; 0x11000L; Int64.min_int ] in
  let* writes =
    list_size (int_bound 5)
      (let* off = int_range (-12) 12 in
       let* n = size in
       let* v = map Int64.of_int int in
       let* sym = bool in
       let v =
         if n = 8 then v
         else Int64.logand v (Int64.pred (Int64.shift_left 1L (8 * n)))
       in
       return (Int64.add centre (Int64.of_int off), n, v, sym))
  in
  let* off = int_range (-9) 9 in
  let* n = size in
  return (writes, Int64.add centre (Int64.of_int off), n)

let print_read_case (writes, a, n) =
  String.concat "; "
    (List.map
       (fun (wa, wn, v, sym) ->
          Printf.sprintf "w%d 0x%Lx := %s0x%Lx" wn wa (if sym then "in0^" else "") v)
       writes)
  ^ Printf.sprintf " / r%d 0x%Lx" n a

let write_value (_, _, v, sym) =
  if sym then E.bin E.Xor (E.Input 0) (E.Const v) else E.Const v

(* [Ok (symbolic, value under input byte b)] or the fault message *)
let model_read base writes a n =
  let newest_first = List.rev writes in
  let byte i =
    let ba = Int64.add a (Int64.of_int i) in
    let covers (wa, wn, _, _) =
      let off = Int64.sub ba wa in
      off >= 0L && off < Int64.of_int wn
    in
    match List.find_opt covers newest_first with
    | Some ((wa, _, _, sym) as w) ->
      let shift = 8 * Int64.to_int (Int64.sub ba wa) in
      Some
        ( sym,
          fun b ->
            Int64.logand
              (Int64.shift_right_logical
                 (E.eval ~input:(fun _ -> b) (write_value w)) shift)
              0xFFL )
    | None ->
      Option.map
        (fun v -> (false, fun _ -> Int64.of_int v))
        (Machine.Memory.read_u8_opt base ba)
  in
  let bytes = List.init n byte in
  if List.mem None bytes then Error (Printf.sprintf "read of unmapped 0x%Lx" a)
  else
    let bytes = List.filter_map Fun.id bytes in
    Ok
      ( List.exists fst bytes,
        fun b ->
          List.fold_right
            (fun (_, f) r -> Int64.logor (Int64.shift_left r 8) (f b))
            bytes 0L )

(* The read under test against the model, and against two independent
   oracles: the theory-of-arrays [Load] over [to_expr_mem], and, when every
   write is constant, a [Machine.Memory] that received the same writes
   (its neighbour pages mapped so no write faults). *)
let read_agrees ~read (writes, a, n) =
  let module S = Symex.Sym_state in
  let base = read_base () in
  let st = S.create base 0L in
  let model =
    { S.toa = false; concretize = (fun _ _ -> None); on_write = (fun _ _ -> ()) }
  in
  List.iter
    (fun ((wa, wn, _, _) as w) ->
       S.mwrite ~model st (E.Const wa) wn (write_value w))
    writes;
  match
    ( (match read st a n with e -> Ok e | exception S.Sym_fault m -> Error m),
      model_read base writes a n )
  with
  | Error m1, Error m2 -> m1 = m2
  | Ok _, Error _ | Error _, Ok _ -> false
  | Ok got, Ok (sym, want) ->
    let load = E.load (S.to_expr_mem st.S.mem) (E.Const a) n in
    let machine () =
      let mem = Machine.Memory.copy base in
      Machine.Memory.map mem (Int64.sub read_page_lo 4096L) (3 * 4096);
      Machine.Memory.map mem (Int64.sub Int64.min_int 4096L) (2 * 4096);
      List.iter (fun (wa, wn, v, _) -> Machine.Memory.write mem wa wn v) writes;
      Machine.Memory.read mem a n
    in
    E.is_const got = not sym
    && List.for_all
         (fun b ->
            let ev = E.eval ~input:(fun _ -> b) in
            ev got = want b && ev load = want b)
         [ 0; 0x5A; 0xFF ]
    && (List.exists (fun (_, _, _, sym) -> sym) writes
        || E.eval ~input:(fun _ -> 0) got = machine ())

let prop_read_concrete ?(count = 2000) read =
  QCheck.Test.make ~name:"concrete read = byte-wise model" ~count
    (QCheck.make ~print:print_read_case gen_read_case)
    (read_agrees ~read)

let prop_read_concrete_matches_model =
  prop_read_concrete Symex.Sym_state.read_concrete

(* Seeded fault: the start-keyed exact-match arm the byte map replaced.  A
   write of exactly the read's address and size is returned as written
   even when a newer write covers some of its bytes; the property must
   find a counterexample. *)
let test_read_property_catches_exact_arm () =
  let module S = Symex.Sym_state in
  let read st a n =
    match S.I64Map.find_opt a st.S.mem.S.cmap with
    | Some w when w.S.addr = a && w.S.size = n -> w.S.value
    | Some _ | None -> S.read_concrete st a n
  in
  match
    QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |])
      (prop_read_concrete ~count:5000 read)
  with
  | () -> Alcotest.fail "the old exact-match arm went unnoticed"
  | exception QCheck.Test.Test_fail _ -> ()

(* --- adversarial inputs: contradictions, faults, budget exhaustion ----------- *)

let test_contradictory_constraints () =
  (* a satisfiable condition asserted both ways can have no model *)
  let e =
    E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 0xFFL)) (E.Const 3L)
  in
  Alcotest.(check bool) "contradiction is unsat" true
    (Symex.Solver.solve ~n_inputs:1 ~max_evals:5_000
       [ { Symex.Solver.cond = e; want = true };
         { Symex.Solver.cond = e; want = false } ]
     = None)

(* target: idiv of min_int by (input - 2).  input=1 divides by -1 and
   overflows #DE; input=2 divides by zero; input=0 divides by -2 and
   returns cleanly. *)
let div_fault_image () =
  let open X86.Isa in
  let body =
    [ Mov (W64, Reg RAX, Imm Int64.min_int);
      Mov (W64, Reg RCX, Reg RDI);
      Alu (Sub, W64, Reg RCX, Imm 2L);
      Mov (W64, Reg RDX, Reg RAX);
      Shift (Sar, W64, Reg RDX, S_imm 63);
      MulDiv (Idiv, Reg RCX);
      Ret ]
  in
  let text = X86.Encode.encode_list body in
  let img = Image.create () in
  ignore
    (Image.add_section img ~name:".text" ~addr:Image.text_base ~data:text
       ~writable:false ~executable:true);
  Image.add_symbol img ~is_function:true ~name:"target" ~addr:Image.text_base
    ~size:(Bytes.length text) ();
  img

let test_div_overflow_fault_paths () =
  let img = div_fault_image () in
  (* the concrete machine's verdicts *)
  let conc arg = (Runner.call img ~func:"target" ~args:[ arg ]).Runner.status in
  Alcotest.(check bool) "concrete overflow" true
    (conc 1L = Machine.Exec.Fault "divide overflow");
  Alcotest.(check bool) "concrete divide by zero" true
    (conc 2L = Machine.Exec.Fault "divide by zero");
  Alcotest.(check bool) "concrete clean path" true
    (conc 0L = Machine.Exec.Halted);
  (* the concolic stepper must fault in exactly the same places *)
  let tgt = { Symex.Engine.img; func = "target"; n_inputs = 1 } in
  let ctx =
    Symex.Engine.make_ctx ~goal:Symex.Engine.G_secret
      ~budget:{ Symex.Engine.default_budget with wall_seconds = 10.0 } tgt
  in
  let outcome w =
    let _, _, o = Symex.Engine.concolic_path ctx [| w |] in
    o
  in
  Alcotest.(check bool) "symbolic overflow fault" true
    (outcome 1 = `Fault "divide overflow");
  Alcotest.(check bool) "symbolic divide-by-zero fault" true
    (outcome 2 = `Fault "divide by zero");
  Alcotest.(check bool) "symbolic clean path" true (outcome 0 = `Halt)

let test_budget_exhaustion_returns_unknown () =
  (* a P1-hardened target under a ~50 ms budget: the engine must come back
     with Unknown (no secret, timed_out set) instead of spinning *)
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let img = Minic.Codegen.compile t.prog in
  let rw =
    Ropc.Rewriter.rewrite img ~functions:[ "target" ]
      ~config:(Ropc.Config.rop_k 1.0)
  in
  let tgt =
    { Symex.Engine.img = rw.Ropc.Rewriter.image; func = "target";
      n_inputs = 1 }
  in
  let budget = { Symex.Engine.default_budget with wall_seconds = 0.05 } in
  let t0 = Unix.gettimeofday () in
  let r = Symex.Engine.dse ~goal:Symex.Engine.G_secret ~budget tgt in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "no secret under an impossible deadline" true
    (r.Symex.Engine.secret_input = None);
  Alcotest.(check bool) "timed_out reported" true
    r.Symex.Engine.stats.Symex.Engine.timed_out;
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.2fs)" elapsed)
    true (elapsed < 10.0)

(* The stepping loops poll the wall clock on a stride, but the first poll
   comes before a path's first instruction: a deadline that has already
   passed stops both engines at once, with [timed_out] set. *)
let test_expired_deadline_stops_at_once () =
  let module En = Symex.Engine in
  let t = scaled_fun ~input_size:1 ~control_index:0 in
  let tgt =
    { En.img = Minic.Codegen.compile t.prog; func = "target"; n_inputs = 1 }
  in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun wall ->
            let budget = { En.default_budget with En.wall_seconds = wall } in
            let r : En.result = run ~goal:En.G_secret ~budget tgt in
            let what = Printf.sprintf "%s, wall_seconds %g" name wall in
            Alcotest.(check bool) (what ^ ": timed_out") true
              r.En.stats.En.timed_out;
            Alcotest.(check bool) (what ^ ": no secret") true
              (r.En.secret_input = None);
            if wall < 0.0 then
              Alcotest.(check int) (what ^ ": instructions") 0
                r.En.stats.En.instrs)
         [ 0.0; -1.0 ])
    [ ("dse", fun ~goal ~budget tgt -> En.dse ~goal ~budget tgt);
      ("se", fun ~goal ~budget tgt -> En.se ~goal ~budget tgt) ]

let test_oversized_query_refused () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  (* individually satisfiable (any input >= 8 works), but one constraint past
     the solver's refusal threshold *)
  let cs =
    List.init (Symex.Solver.max_constraints + 1) (fun i ->
        { Symex.Solver.cond =
            E.bin E.Eq (E.Input 0) (E.Const (Int64.of_int (i mod 8)));
          want = false })
  in
  let t0 = Unix.gettimeofday () in
  let r = Symex.Solver.solve ~n_inputs:1 ~max_evals:60_000 cs in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "refused, not solved" true (r = None);
  Alcotest.(check bool)
    (Printf.sprintf "refused outright (%.2fs)" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "refusal is visible in metrics" true
    (List.assoc_opt "symex.solver.refused_oversized"
       (Obs.Metrics.snapshot ())
     = Some (Obs.Metrics.Counter 1));
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ()

let () =
  Alcotest.run "symex"
    [ ("expr",
       List.map QCheck_alcotest.to_alcotest
         [ prop_eval_matches_compiled; prop_solver_sound ]
       @ [ Alcotest.test_case "operators at the sign edges" `Quick
             test_eval_edges;
           Alcotest.test_case "compiled run allocates nothing" `Quick
             test_run_allocation_free ]);
      ("node identity",
       [ Alcotest.test_case "Phys.hash distinct on a DSE DAG" `Quick
           test_phys_hash_quality;
         Alcotest.test_case "Phys_tbl chains short with run-time leaves"
           `Quick test_phys_tbl_buckets;
         Alcotest.test_case "Phys_tbl keys are physical" `Quick
           test_phys_tbl_is_physical;
         Alcotest.test_case "compile: one slot per node" `Quick
           test_compile_one_slot_per_node;
         QCheck_alcotest.to_alcotest prop_leaf_copies_agree ]);
      ("solver",
       [ Alcotest.test_case "eq inversion" `Quick test_solver_finds_eq;
         Alcotest.test_case "unsat" `Quick test_solver_unsat;
         QCheck_alcotest.to_alcotest prop_scored_table_matches_score;
         Alcotest.test_case "table property catches a keyless slot" `Quick
           test_table_property_catches_keyless_slot;
         QCheck_alcotest.to_alcotest prop_verdict_table_matches_eval_query;
         Alcotest.test_case "verdict property catches a short end index"
           `Quick test_verdict_property_catches_short_end;
         Alcotest.test_case "1-byte unsat: one run per value" `Quick
           test_unsat_byte_runs_once_per_value ]);
      ("stepper",
       List.map QCheck_alcotest.to_alcotest
         [ prop_sym_concrete_native; prop_sym_concrete_rop;
           prop_one_instruction; prop_flag_pairs ();
           prop_read_concrete_matches_model ]
       @ [ Alcotest.test_case "decode cache keys all 64 bits" `Quick
             test_decode_cache_full_width;
           Alcotest.test_case "pair property catches stale flags" `Quick
             test_pair_property_catches_stale_flags;
           Alcotest.test_case "read property catches the exact-match arm" `Quick
             test_read_property_catches_exact_arm ]);
      ("adversarial",
       [ Alcotest.test_case "contradictory constraints" `Quick
           test_contradictory_constraints;
         Alcotest.test_case "div fault paths" `Quick
           test_div_overflow_fault_paths;
         Alcotest.test_case "budget exhaustion -> unknown" `Quick
           test_budget_exhaustion_returns_unknown;
         Alcotest.test_case "oversized query refused" `Quick
           test_oversized_query_refused;
         Alcotest.test_case "expired deadline stops at once" `Quick
           test_expired_deadline_stops_at_once ]);
      ("attacks",
       [ Alcotest.test_case "dse cracks native" `Slow test_dse_cracks_native;
         Alcotest.test_case "se cracks native" `Slow test_se_cracks_native;
         Alcotest.test_case "dse coverage native" `Slow test_dse_coverage_native;
         Alcotest.test_case "rop slows dse" `Slow test_dse_slowed_by_rop;
         Alcotest.test_case "attack-dse exact counts" `Slow
           test_attack_dse_exact_counts;
         Alcotest.test_case "attack-dse exact runs" `Slow
           test_attack_dse_exact_runs;
         Alcotest.test_case "attack-dse portfolio ledger" `Slow
           test_attack_dse_portfolio_ledger ]) ]

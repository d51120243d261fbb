(* Solver memo cache: canonicalization (alpha-renaming, commutative
   operand order, constant folding), re-validation of cached models, disk
   persistence, and unsat-core prefix reuse.

   The equivalence tests are Rng-driven from fixed seeds: every run checks
   the same query population, so a failure here is reproducible, never a
   flake. *)

module E = Symex.Expr
module S = Symex.Solver

let rng = Util.Rng.create 20260809

let digest_of ~n_inputs cs =
  match S.canonicalize ~n_inputs cs with
  | Some c -> c.S.cq_digest
  | None -> Alcotest.fail "query unexpectedly uncacheable"

(* random expression over [k] input bytes, commutative-heavy *)
let rec gen_expr r k depth =
  if depth = 0 then
    if Util.Rng.bool r then E.Const (Int64.of_int (Util.Rng.int r 64))
    else E.Input (Util.Rng.int r k)
  else
    match Util.Rng.int r 8 with
    | 0 | 1 | 2 ->
      let op =
        Util.Rng.choose r
          [ E.Add; E.Mul; E.And; E.Or; E.Xor; E.Eq ]   (* commutative *)
      in
      E.Raw.bin op (gen_expr r k (depth - 1)) (gen_expr r k (depth - 1))
    | 3 | 4 ->
      let op = Util.Rng.choose r [ E.Sub; E.Shl; E.Ult; E.Slt ] in
      E.Raw.bin op (gen_expr r k (depth - 1)) (gen_expr r k (depth - 1))
    | 5 ->
      E.Raw.un (Util.Rng.choose r [ E.Not; E.Neg; E.Bool_not ])
        (gen_expr r k (depth - 1))
    | _ -> gen_expr r k (depth - 1)

let gen_query r k =
  List.init (1 + Util.Rng.int r 3)
    (fun _ ->
       { S.cond = gen_expr r k (1 + Util.Rng.int r 3);
         want = Util.Rng.bool r })

(* Input-blind canonical shape, mirroring the solver's tie condition: a
   commutative swap is only claimed to be erased when the operand shapes
   differ (tied shapes keep source order, so swapping them is outside the
   invariance contract). *)
let rec shape e =
  match e with
  | E.Const v -> "C" ^ Int64.to_string v
  | E.Input _ -> "I"
  | E.Bin (op, a, b, _) ->
    let sa = shape a and sb = shape b in
    let sa, sb =
      if S.commutative op && String.compare sb sa < 0 then (sb, sa)
      else (sa, sb)
    in
    "(" ^ S.bin_tag op ^ sa ^ sb ^ ")"
  | E.Un (op, a, _) -> "(" ^ S.un_tag op ^ shape a ^ ")"
  | E.Ite (c, t, f, _) -> "(?" ^ shape c ^ shape t ^ shape f ^ ")"
  | E.Load _ -> "L"

(* rewrite: rename inputs through [perm] and randomly swap the operands of
   commutative operators with distinct shapes — the rewrites
   canonicalization must erase.  Rebuilt through the smart constructors so
   the swap decision sees the folded operands the solver will see. *)
let rec permute_swap r perm e =
  match e with
  | E.Const _ -> e
  | E.Input i -> E.Input perm.(i)
  | E.Bin (op, a, b, _) ->
    let a = permute_swap r perm a and b = permute_swap r perm b in
    if S.commutative op && shape a <> shape b && Util.Rng.bool r then
      E.bin op b a
    else E.bin op a b
  | E.Un (op, a, _) -> E.un op (permute_swap r perm a)
  | E.Ite (c, t, f, _) ->
    E.ite (permute_swap r perm c) (permute_swap r perm t)
      (permute_swap r perm f)
  | E.Load _ -> e

let random_perm r k =
  Array.of_list (Util.Rng.shuffle r (List.init k Fun.id))

let test_digest_invariance () =
  let k = 3 in
  for _ = 1 to 300 do
    let cs = gen_query rng k in
    let perm = random_perm rng k in
    let cs' =
      List.map (fun c -> { c with S.cond = permute_swap rng perm c.S.cond }) cs
    in
    Alcotest.(check string) "alpha-renamed + swapped query -> same digest"
      (digest_of ~n_inputs:k cs) (digest_of ~n_inputs:k cs')
  done

let test_digest_folds_constants () =
  for _ = 1 to 200 do
    let cs = gen_query rng 2 in
    (* replace every constant by an equivalent two-term sum: constant
       folding in canonicalization must erase the difference *)
    let rec unfold e =
      match e with
      | E.Const v ->
        let a = Int64.of_int (Util.Rng.int rng 1000) in
        E.Raw.bin E.Add (E.Const a) (E.Const (Int64.sub v a))
      | E.Input _ -> e
      | E.Bin (op, x, y, _) -> E.Raw.bin op (unfold x) (unfold y)
      | E.Un (op, x, _) -> E.Raw.un op (unfold x)
      | E.Ite (c, t, f, _) -> E.Raw.ite (unfold c) (unfold t) (unfold f)
      | E.Load _ -> e
    in
    let cs' = List.map (fun c -> { c with S.cond = unfold c.S.cond }) cs in
    Alcotest.(check string) "unfolded constants -> same digest"
      (digest_of ~n_inputs:2 cs) (digest_of ~n_inputs:2 cs')
  done

let test_digest_want_normalization () =
  (* Eq(e, 0) wanted true is the same query as e wanted false *)
  let e = E.bin E.Add (E.Input 0) (E.Const 3L) in
  Alcotest.(check string) "polarity-normalized forms share a digest"
    (digest_of ~n_inputs:1 [ { S.cond = E.Raw.bin E.Eq e (E.Const 0L); want = true } ])
    (digest_of ~n_inputs:1 [ { S.cond = e; want = false } ])

(* truth vector of a 1-input query: the query's semantics, exactly *)
let truth_vector cs =
  List.init 256 (fun v ->
      let ev = E.evaluator ~input:(fun i -> if i = 0 then v else 0) in
      List.for_all (fun c -> (ev c.S.cond <> 0L) = c.S.want) cs)

let test_distinct_semantics_distinct_digests () =
  (* canonicalization must never merge semantically different queries:
     compare full 1-byte truth tables against digest equality *)
  let queries = List.init 120 (fun _ -> gen_query rng 1) in
  let tagged =
    List.map (fun cs -> (digest_of ~n_inputs:1 cs, truth_vector cs)) queries
  in
  List.iteri
    (fun i (d1, t1) ->
       List.iteri
         (fun j (d2, t2) ->
            if i < j && t1 <> t2 then
              Alcotest.(check bool)
                (Printf.sprintf "queries %d/%d differ semantically" i j)
                false (d1 = d2))
         tagged)
    tagged

let test_load_uncacheable () =
  let mem = { E.base = Machine.Memory.create (); writes = [] } in
  let e = E.load mem (E.Input 0) 1 in
  Alcotest.(check bool) "memory-dependent query has no content address" true
    (S.canonicalize ~n_inputs:1 [ { S.cond = e; want = true } ] = None)

(* Content addresses are pinned: the on-disk memo ([Memo.solver_version])
   stays valid only while canonicalize and constraint_digest map a query to
   the same bytes.  Node stamps, allocation order and hash-table layout must
   never reach them.  The hex literals were recorded before node stamps
   existed. *)

(* inputs 3 and 1 of 4: canonical names come from first occurrence *)
let golden_alpha =
  [ { S.cond =
        E.bin E.Eq
          (E.bin E.Add (E.Input 3) (E.bin E.Mul (E.Input 1) (E.Const 7L)))
          (E.Const 0x1234L);
      want = true };
    { S.cond = E.bin E.Ult (E.Input 1) (E.Const 200L); want = false } ]

(* spelled with unfolded constant subterms; canonicalize folds them *)
let golden_unfolded =
  [ { S.cond =
        E.Raw.bin E.Eq
          (E.Raw.bin E.Xor (E.Input 0)
             (E.Raw.bin E.Add (E.Const 40L) (E.Const 2L)))
          (E.Raw.bin E.Sub (E.Const 100L) (E.Const 1L));
      want = true };
    { S.cond =
        E.Raw.un E.Bool_not
          (E.Raw.bin E.Ult (E.Input 1)
             (E.Raw.bin E.Mul (E.Const 3L) (E.Const 5L)));
      want = true } ]

(* DSE-shaped: a loop-carried 1-byte state, branch conditions on a shared
   and growing prefix *)
let golden_dse =
  let x = ref (E.un (E.Low (X86.Isa.W8, false)) (E.Input 0)) in
  let cs = ref [] in
  for k = 1 to 40 do
    let v = !x in
    let stepped =
      E.bin E.Xor
        (E.bin E.Add (E.bin E.Mul v (E.Const 3L)) (E.Const (Int64.of_int k)))
        (E.bin E.Shr v (E.Const 2L))
    in
    x :=
      E.bin E.And
        (E.ite (E.bin E.Ult v (E.Const 100L)) stepped (E.bin E.Sub stepped v))
        (E.Const 0xFFL);
    if k mod 8 = 0 then
      cs := { S.cond = E.bin E.Ult !x (E.Const 128L); want = k mod 16 = 0 } :: !cs
  done;
  List.rev ({ S.cond = E.bin E.Eq !x (E.Const 0x5AL); want = true } :: !cs)

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_golden_digests () =
  List.iter
    (fun (name, n_inputs, cs, want) ->
       Alcotest.(check string) name want (digest_of ~n_inputs cs))
    [ ("alpha-renamed", 4, golden_alpha, "ec0fd1622b86dfd2ca711ae081710eac");
      ("raw unfolded constants", 2, golden_unfolded,
       "6fe62168e15d6229da5592f1acf4fd2d");
      ("DSE-shaped 1-byte", 1, golden_dse, "55e3141b6122a777b1af06d0df41b72e") ];
  Alcotest.(check (option string)) "constraint_digest"
    (Some "aae89380e10ab9e15207adf3665c2a4746")
    (Option.map hex (S.constraint_digest (List.nth golden_dse 2)))

(* Two physically distinct [Input 0] nodes, allocated at run time.  The
   folds [bin And x x -> x] and [ite c t t -> t] test [==], so
   canonicalization must hand each leaf back as itself: were the two
   merged into one node, both queries would fold and their digests change. *)
let test_golden_identity_folds () =
  let a = E.Input (Sys.opaque_identity 0) in
  let b = E.Input (Sys.opaque_identity 0) in
  Alcotest.(check bool) "two leaves, one value" true (a = b && a != b);
  List.iter
    (fun (name, cond, want) ->
       Alcotest.(check string) name want
         (digest_of ~n_inputs:1 [ { S.cond; want = true } ]))
    [ ("And of two Input 0 nodes",
       E.Raw.bin E.Eq (E.Raw.bin E.And a b) (E.Const 5L),
       "ef1b41e287e754a7a689b709254b119e");
      ("Ite over two Input 0 nodes",
       E.Raw.bin E.Eq
         (E.Raw.ite (E.Raw.bin E.Ult a (E.Const 9L)) a b) (E.Const 3L),
       "471642bd553aaaa50e046dbb3c34717c") ]

(* --- memo behavior ----------------------------------------------------------- *)

let q_eq v = [ { S.cond = E.bin E.Eq (E.Input 0) (E.Const v); want = true } ]

let test_memo_hit_and_model_transfer () =
  let memo = S.Memo.create () in
  let solve cs =
    S.solve_verdict ~memo ~n_inputs:2 ~max_evals:20_000 cs
  in
  (match solve (q_eq 17L) with
   | S.V_sat m -> Alcotest.(check int) "first solve finds 17" 17 m.(0)
   | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "first solve was a miss" 1 memo.S.Memo.misses;
  (* alpha-equivalent query over the *other* input byte: the cached model
     must transfer through the renaming and re-validate *)
  let cs' = [ { S.cond = E.bin E.Eq (E.Input 1) (E.Const 17L); want = true } ] in
  let stats = S.make_stats () in
  (match S.solve_verdict ~memo ~stats ~n_inputs:2
           ~max_evals:20_000 cs' with
   | S.V_sat m ->
     Alcotest.(check int) "transferred model satisfies" 17 m.(1);
     Alcotest.(check bool) "model re-validates" true (S.check m cs')
   | _ -> Alcotest.fail "expected sat from memo");
  Alcotest.(check int) "served from memo" 1 memo.S.Memo.hits;
  Alcotest.(check int) "no search on a hit" 0 stats.S.evals

let test_poisoned_model_never_returned () =
  let memo = S.Memo.create () in
  let cs = q_eq 42L in
  let canon = Option.get (S.canonicalize ~n_inputs:1 cs) in
  (* poison the cache with a wrong model under the query's own digest *)
  S.Memo.store memo canon.S.cq_digest (S.ME_sat [| 13 |]);
  (match S.solve_verdict ~memo ~n_inputs:1 ~max_evals:20_000 cs with
   | S.V_sat m ->
     Alcotest.(check bool) "returned model satisfies the original query"
       true (S.check m cs);
     Alcotest.(check int) "the poisoned model was rejected" 42 m.(0)
   | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "re-validation failure recorded" 1 memo.S.Memo.invalid;
  (* the poisoned entry was overwritten by the recomputed one *)
  match S.Memo.find memo canon.S.cq_digest with
  | Some (S.ME_sat m) -> Alcotest.(check int) "entry repaired" 42 m.(0)
  | _ -> Alcotest.fail "expected repaired ME_sat entry"

let tmpdir () =
  let d = Filename.temp_file "solver_cache_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_disk_roundtrip () =
  let dir = tmpdir () in
  let cs = q_eq 99L in
  let m1 = S.Memo.create ~dir () in
  (match S.solve_verdict ~memo:m1 ~n_inputs:1 ~max_evals:20_000 cs with
   | S.V_sat _ -> ()
   | _ -> Alcotest.fail "expected sat");
  (* a fresh memo over the same directory models a new process *)
  let m2 = S.Memo.create ~dir () in
  let stats = S.make_stats () in
  (match S.solve_verdict ~memo:m2 ~stats ~n_inputs:1
           ~max_evals:20_000 cs with
   | S.V_sat m -> Alcotest.(check int) "model from disk" 99 m.(0)
   | _ -> Alcotest.fail "expected sat from disk");
  Alcotest.(check int) "no search after reload" 0 stats.S.evals;
  Alcotest.(check int) "disk hit counted" 1 m2.S.Memo.hits

let test_unknown_budget_semantics () =
  (* an Unknown cached at N evals must not be reused for a bigger budget *)
  let memo = S.Memo.create () in
  (* hash-like equation over 3 bytes: the penalty landscape gives local
     search no gradient, so a tiny budget cannot solve it (and the zero
     probe fails, since the target hash is that of a nonzero input) *)
  let h in0 in1 in2 =
    E.bin E.Xor
      (E.bin E.Mul (E.bin E.Xor (E.bin E.Mul in0 (E.Const 131L)) in1)
         (E.Const 131L))
      in2
  in
  let target = h (E.Const 0x5AL) (E.Const 0xC3L) (E.Const 0x77L) in
  let hard =
    [ { S.cond = E.bin E.Eq (h (E.Input 0) (E.Input 1) (E.Input 2)) target;
        want = true } ]
  in
  let v1 =
    S.solve_verdict ~rng:(Util.Rng.create 1) ~memo ~n_inputs:3
      ~max_evals:200 hard
  in
  (match v1 with
   | S.V_unknown -> ()
   | S.V_sat _ -> Alcotest.fail "tiny budget should not solve this"
   | S.V_unsat -> Alcotest.fail "query is not provably unsat here");
  (* same query, larger budget: must search again, not echo the Unknown *)
  let stats = S.make_stats () in
  ignore
    (S.solve_verdict ~rng:(Util.Rng.create 1) ~memo ~stats
       ~n_inputs:3 ~max_evals:2_000 hard);
  Alcotest.(check bool) "bigger budget searches again" true (stats.S.evals > 0);
  (* equal budget: the cached Unknown applies *)
  let stats2 = S.make_stats () in
  (match
     S.solve_verdict ~rng:(Util.Rng.create 1) ~memo ~stats:stats2
       ~n_inputs:3 ~max_evals:200 hard
   with
   | S.V_unknown -> ()
   | _ -> Alcotest.fail "expected cached unknown");
  Alcotest.(check int) "equal budget served from memo" 0 stats2.S.evals

let test_unsat_core_prefix_reuse () =
  let memo = S.Memo.create () in
  let contradiction =
    { S.cond =
        E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 1L)) (E.Const 7L);
      want = true }
  in
  (match S.solve_verdict ~memo ~n_inputs:1 ~max_evals:20_000
           [ contradiction ] with
   | S.V_unsat -> ()
   | _ -> Alcotest.fail "exhaustive enumeration should prove unsat");
  (* a *grown* constraint set (the DSE path-prefix pattern) shares no
     digest with the original query, but contains its unsat core *)
  let grown =
    [ { S.cond = E.bin E.Ult (E.Input 0) (E.Const 10L); want = true };
      contradiction ]
  in
  let stats = S.make_stats () in
  (match S.solve_verdict ~memo ~stats ~n_inputs:1
           ~max_evals:20_000 grown with
   | S.V_unsat -> ()
   | _ -> Alcotest.fail "superset of an unsat core must be unsat");
  Alcotest.(check int) "prefix verdict reused without search" 0 stats.S.evals;
  Alcotest.(check int) "core hit recorded" 1 memo.S.Memo.prefix_hits

let prop_memoized_solve_agrees =
  (* memoized solving is an optimization, never a semantics change: on a
     seeded query population, verdict-with-memo = verdict-without *)
  QCheck.Test.make ~name:"memo does not change verdicts" ~count:150
    QCheck.(map (fun seed -> seed) small_int)
    (fun seed ->
       let r = Util.Rng.create (seed + 7777) in
       let cs = gen_query r 2 in
       let memo = S.Memo.create () in
       let v_plain =
         S.solve_verdict ~rng:(Util.Rng.create 5) ~n_inputs:2
           ~max_evals:5_000 cs
       in
       let v_memo =
         S.solve_verdict ~rng:(Util.Rng.create 5) ~memo
           ~n_inputs:2 ~max_evals:5_000 cs
       in
       match v_plain, v_memo with
       | S.V_sat _, S.V_sat m -> S.check m cs
       | S.V_unsat, S.V_unsat | S.V_unknown, S.V_unknown -> true
       | _, _ -> false)

let () =
  Alcotest.run "solver_cache"
    [ ("canonicalization",
       [ Alcotest.test_case "alpha + commutative invariance" `Quick
           test_digest_invariance;
         Alcotest.test_case "constant folding" `Quick
           test_digest_folds_constants;
         Alcotest.test_case "want-polarity normalization" `Quick
           test_digest_want_normalization;
         Alcotest.test_case "distinct semantics, distinct digests" `Quick
           test_distinct_semantics_distinct_digests;
         Alcotest.test_case "Load is uncacheable" `Quick
           test_load_uncacheable;
         Alcotest.test_case "golden digests" `Quick test_golden_digests;
         Alcotest.test_case "golden identity-sensitive folds" `Quick
           test_golden_identity_folds ]);
      ("memo",
       [ Alcotest.test_case "hit + alpha model transfer" `Quick
           test_memo_hit_and_model_transfer;
         Alcotest.test_case "poisoned model never returned" `Quick
           test_poisoned_model_never_returned;
         Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
         Alcotest.test_case "unknown is budget-scoped" `Quick
           test_unknown_budget_semantics;
         Alcotest.test_case "unsat-core prefix reuse" `Quick
           test_unsat_core_prefix_reuse;
         QCheck_alcotest.to_alcotest prop_memoized_solve_agrees ]) ]

(* Portfolio solver: differential verdicts against a brute-force oracle,
   per-strategy agreement, seeded determinism, and deadline discipline.

   The portfolio races four strategies in eval slices; its contract is that
   racing changes *throughput*, never *verdicts*: Sat models must concretely
   satisfy, Unsat must only come from a complete strategy, and a fixed rng
   seed must make the whole race reproducible. *)

module E = Symex.Expr
module S = Symex.Solver

let rng = Util.Rng.create 31337

let rec gen_expr r k depth =
  if depth = 0 then
    if Util.Rng.bool r then E.Const (Int64.of_int (Util.Rng.int r 300))
    else E.Input (Util.Rng.int r k)
  else
    match Util.Rng.int r 7 with
    | 0 | 1 | 2 ->
      let op =
        Util.Rng.choose r
          [ E.Add; E.Sub; E.Mul; E.And; E.Or; E.Xor; E.Eq; E.Ult; E.Slt ]
      in
      E.Raw.bin op (gen_expr r k (depth - 1)) (gen_expr r k (depth - 1))
    | 3 ->
      E.Raw.un (Util.Rng.choose r [ E.Not; E.Neg; E.Bool_not ])
        (gen_expr r k (depth - 1))
    | _ -> gen_expr r k (depth - 1)

let gen_query r k =
  List.init (1 + Util.Rng.int r 3)
    (fun _ ->
       { S.cond = gen_expr r k (1 + Util.Rng.int r 3);
         want = Util.Rng.bool r })

(* ground truth on a <=2-byte query: sweep the whole input space *)
let oracle_sat cs =
  let sat = ref false in
  let v0 = ref 0 and v1 = ref 0 in
  let input i = if i = 0 then !v0 else if i = 1 then !v1 else 0 in
  (try
     for a = 0 to 255 do
       v0 := a;
       for b = 0 to 255 do
         v1 := b;
         let ev = E.evaluator ~input in
         if List.for_all (fun c -> (ev c.S.cond <> 0L) = c.S.want) cs then begin
           sat := true;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !sat

let test_verdicts_vs_oracle () =
  (* 2-byte corpus with a budget big enough for the enumeration strategy to
     finish: every race must settle, and must settle *correctly* *)
  for i = 1 to 40 do
    let cs = gen_query rng 2 in
    match
      S.solve_verdict ~rng:(Util.Rng.create (1000 + i)) ~mode:S.Portfolio
        ~n_inputs:2 ~max_evals:300_000 cs
    with
    | S.V_sat m ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: model satisfies concretely" i)
        true (S.check m cs)
    | S.V_unsat ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: oracle confirms unsat" i)
        false (oracle_sat cs)
    | S.V_unknown ->
      Alcotest.failf
        "query %d: portfolio returned unknown with a complete-budget race" i
  done

let test_unsat_needs_completeness () =
  (* (in0 & 1) == 7 has no model; only a complete strategy may say so *)
  let cs =
    [ { S.cond =
          E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 1L)) (E.Const 7L);
        want = true } ]
  in
  match
    S.solve_verdict ~mode:S.Portfolio ~n_inputs:1 ~max_evals:50_000 cs
  with
  | S.V_unsat -> ()
  | S.V_sat _ -> Alcotest.fail "unsatisfiable query declared sat"
  | S.V_unknown -> Alcotest.fail "complete 1-byte race must prove unsat"

(* hash-like 3-byte equation: no gradient, zero probe fails, 16.7M space *)
let hard_query () =
  let h in0 in1 in2 =
    E.bin E.Xor
      (E.bin E.Mul (E.bin E.Xor (E.bin E.Mul in0 (E.Const 131L)) in1)
         (E.Const 131L))
      in2
  in
  [ { S.cond =
        E.bin E.Eq
          (h (E.Input 0) (E.Input 1) (E.Input 2))
          (h (E.Const 0x5AL) (E.Const 0xC3L) (E.Const 0x77L));
      want = true } ]

let test_unknown_only_when_all_fail () =
  let cs = hard_query () in
  let budget = 2_000 in
  (match
     S.solve_verdict ~rng:(Util.Rng.create 9) ~mode:S.Portfolio ~n_inputs:3
       ~max_evals:budget cs
   with
   | S.V_unknown -> ()
   | S.V_sat _ -> Alcotest.fail "tiny budget cannot crack the hash query"
   | S.V_unsat -> Alcotest.fail "the query is satisfiable, unsat is unsound");
  (* the per-strategy oracle: each strategy alone, given 4x the portfolio's
     budget, also fails — Unknown really meant "all strategies agree" *)
  let q = S.compile_query cs in
  let bytes = S.relevant_bytes ~n_inputs:3 cs in
  let run_alone st =
    let budget = ref (4 * budget) in
    let rec go () =
      if !budget <= 0 then None
      else
        match st.S.st_step (min 512 !budget) with
        | S.Sr_found m -> Some m
        | S.Sr_exhausted _ -> None
        | S.Sr_running ->
          budget := !budget - 512;
          go ()
    in
    go ()
  in
  let stats = S.make_stats () in
  let strategies =
    [ S.strat_inversion ~stats ~deadline:0.0 ~n_inputs:3 ~bytes q cs;
      S.strat_interval ~stats ~deadline:0.0 ~n_inputs:3 ~bytes q;
      S.strat_enumeration ~stats ~deadline:0.0 ~n_inputs:3 ~bytes q;
      S.strat_local_search ~stats ~deadline:0.0 ~rng:(Util.Rng.create 9)
        ~n_inputs:3 ~bytes q ]
  in
  List.iter
    (fun st ->
       match run_alone st with
       | None -> ()
       | Some _ ->
         Alcotest.failf "strategy %s alone beats the portfolio's Unknown"
           st.S.st_name)
    strategies

let test_inversion_complete_only_on_full_product () =
  (* no single-byte constraint, so every domain keeps all 256 values and
     the product is 2^24: more than inversion enumerates (2^22), so running
     out of product is no proof, and (250, 250, 200) is a model *)
  let sum = E.bin E.Add (E.bin E.Add (E.Input 0) (E.Input 1)) (E.Input 2) in
  let cs = [ { S.cond = E.bin E.Eq sum (E.Const 700L); want = true } ] in
  Alcotest.(check bool) "the query is satisfiable" true
    (S.check [| 250; 250; 200 |] cs);
  let st =
    S.strat_inversion ~stats:(S.make_stats ()) ~deadline:0.0 ~n_inputs:3
      ~bytes:[ 0; 1; 2 ] (S.compile_query cs) cs
  in
  match st.S.st_step max_int with
  | S.Sr_exhausted true ->
    Alcotest.fail "inversion proved unsat from a partial product"
  | S.Sr_found m ->
    Alcotest.(check bool) "model satisfies" true (S.check m cs)
  | S.Sr_exhausted false | S.Sr_running -> ()

let model_str = function
  | S.V_sat m ->
    "sat:" ^ String.concat "," (List.map string_of_int (Array.to_list m))
  | S.V_unsat -> "unsat"
  | S.V_unknown -> "unknown"

let test_deterministic_given_seed () =
  (* identical (query, seed, budget) -> identical verdict AND model: the
     race is single-threaded round-robin, there is no wall-clock input *)
  for i = 1 to 25 do
    let cs = gen_query rng 2 in
    let run () =
      S.solve_verdict
        ~rng:(Util.Rng.of_key ~seed:5 (Printf.sprintf "q%d" i))
        ~mode:S.Portfolio ~n_inputs:2 ~max_evals:40_000 cs
    in
    Alcotest.(check string)
      (Printf.sprintf "query %d: race is reproducible" i)
      (model_str (run ())) (model_str (run ()))
  done

let test_win_counters () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let races0 = !S.m_races in
  let wins () = List.fold_left (fun a (_, c) -> a + !c) 0 S.m_wins in
  let wins0 = wins () in
  let cs =
    [ { S.cond = E.bin E.Eq (E.Input 0) (E.Const 77L); want = true } ]
  in
  (match
     S.solve_verdict ~mode:S.Portfolio ~n_inputs:1 ~max_evals:50_000 cs
   with
   | S.V_sat m -> Alcotest.(check int) "race solved" 77 m.(0)
   | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "one race recorded" (races0 + 1) !S.m_races;
  Alcotest.(check int) "exactly one winner" (wins0 + 1) (wins ())

let elapsed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let test_deadline_respected () =
  (* regression for the deadline-overshoot bug: a huge eval budget with a
     tight wall deadline must return promptly, in both modes *)
  let cs = hard_query () in
  List.iter
    (fun mode ->
       let v, dt =
         elapsed (fun () ->
             S.solve_verdict ~mode ~deadline:(Unix.gettimeofday () +. 0.15)
               ~n_inputs:3 ~max_evals:50_000_000 cs)
       in
       (* a lucky Sat before the deadline is fine; what must never happen
          is running the eval budget dry past the wall *)
       (match v with
        | S.V_unknown -> ()
        | S.V_sat m ->
          Alcotest.(check bool) "early sat validates" true (S.check m cs)
        | S.V_unsat -> Alcotest.fail "the query is satisfiable");
       Alcotest.(check bool)
         "solve returns within ~4x the deadline margin" true (dt < 0.6))
    [ S.Pipeline; S.Portfolio ]

let test_enumerate_deadline () =
  (* enumerate restarts the solver per value: the restart loop itself must
     poll the wall budget *)
  let e = E.bin E.Add (E.Input 0) (E.bin E.Mul (E.Input 1) (E.Const 256L)) in
  let _, dt =
    elapsed (fun () ->
        S.enumerate ~deadline:(Unix.gettimeofday () +. 0.15) ~n_inputs:2
          ~max_evals:5_000_000 ~limit:100_000 [] e)
  in
  Alcotest.(check bool) "enumerate stops at the deadline" true (dt < 0.6)

(* --- Pipeline mode, pinned ---------------------------------------------------

   Pipeline's (verdict, model, evals, runs) on a fixed query set: any change
   to its schedule, its budgets or the order of its rng draws moves a row.
   Rows cover 0..3 input bytes (0 leaves one phantom byte the search may
   still set), budgets of 0, 1 and 4000 evaluations, and runs with and
   without a caller seed. *)

let eq_in i v =
  { S.cond = E.bin E.Eq (E.Input i) (E.Const (Int64.of_int v)); want = true }

let pipeline_queries =
  let mix =
    let h a b =
      E.bin E.Xor (E.bin E.Mul a (E.Const 131L)) (E.bin E.Mul b (E.Const 77L))
    in
    [ { S.cond =
          E.bin E.Eq (h (E.Input 0) (E.Input 1))
            (h (E.Const 0x3AL) (E.Const 0xC5L));
        want = true };
      { S.cond = E.bin E.Ult (E.Input 0) (E.Const 251L); want = true } ]
  in
  let wide =
    [ { S.cond =
          E.bin E.Eq
            (E.bin E.Add (E.Input 0) (E.bin E.Mul (E.Input 1) (E.Const 256L)))
            (E.Const 70000L);
        want = true } ]
  in
  [ ("true", 0, [ { S.cond = E.Const 1L; want = true } ], None);
    ("in0=5", 0, [ eq_in 0 5 ], None);
    ("in0=77", 1, [ eq_in 0 77 ], None);
    ("in0=77 seed 77", 1, [ eq_in 0 77 ], Some [| 77 |]);
    ("in0=77 seed 76", 1, [ eq_in 0 77 ], Some [| 76 |]);
    ("in0&1=7", 1,
     [ { S.cond =
           E.bin E.Eq (E.bin E.And (E.Input 0) (E.Const 1L)) (E.Const 7L);
         want = true } ],
     None);
    ("mix", 2, mix, None);
    ("mix seed", 2, mix, Some [| 1; 2 |]);
    ("in0=3,in1=200", 2, [ eq_in 0 3; eq_in 1 200 ], None);
    ("wide", 2, wide, None);
    ("hash", 3, hard_query (), None);
    ("in2=9", 3, [ eq_in 2 9 ], None);
    ("in2=9 seed", 3, [ eq_in 2 9 ], Some [| 0; 0; 9 |]) ]

let pipeline_rows solve =
  List.concat_map
    (fun max_evals ->
       List.mapi
         (fun i (name, n_inputs, cs, seed) ->
            let stats = S.make_stats () in
            let v =
              solve ~rng:(Util.Rng.create (100 + i)) ~stats ?seed ~n_inputs
                ~max_evals cs
            in
            Printf.sprintf "%s/%d: %s evals=%d runs=%d" name max_evals
              (model_str v) stats.S.evals stats.S.runs)
         pipeline_queries)
    [ 0; 1; 4000 ]

let pipeline_pinned =
  [ "true/0: sat:0 evals=1 runs=1";
    "in0=5/0: unknown evals=2 runs=1";
    "in0=77/0: unknown evals=2 runs=1";
    "in0=77 seed 77/0: sat:77 evals=2 runs=2";
    "in0=77 seed 76/0: unknown evals=3 runs=2";
    "in0&1=7/0: unknown evals=2 runs=1";
    "mix/0: unknown evals=2 runs=1";
    "mix seed/0: unknown evals=3 runs=2";
    "in0=3,in1=200/0: unknown evals=2 runs=1";
    "wide/0: unknown evals=2 runs=1";
    "hash/0: unknown evals=2 runs=1";
    "in2=9/0: unknown evals=2 runs=1";
    "in2=9 seed/0: sat:0,0,9 evals=2 runs=2";
    "true/1: sat:0 evals=1 runs=1";
    "in0=5/1: unsat evals=3 runs=1";
    "in0=77/1: unknown evals=3 runs=1";
    "in0=77 seed 77/1: sat:77 evals=2 runs=2";
    "in0=77 seed 76/1: unknown evals=4 runs=2";
    "in0&1=7/1: unknown evals=3 runs=1";
    "mix/1: unknown evals=3 runs=1";
    "mix seed/1: unknown evals=4 runs=2";
    "in0=3,in1=200/1: unknown evals=3 runs=1";
    "wide/1: unknown evals=3 runs=1";
    "hash/1: unknown evals=3 runs=2";
    "in2=9/1: unknown evals=3 runs=2";
    "in2=9 seed/1: sat:0,0,9 evals=2 runs=2";
    "true/4000: sat:0 evals=1 runs=1";
    "in0=5/4000: sat:5 evals=7 runs=6";
    "in0=77/4000: sat:77 evals=104 runs=40";
    "in0=77 seed 77/4000: sat:77 evals=2 runs=2";
    "in0=77 seed 76/4000: sat:77 evals=7 runs=6";
    "in0&1=7/4000: unsat evals=1260 runs=256";
    "mix/4000: unknown evals=5004 runs=4574";
    "mix seed/4000: unknown evals=5005 runs=4583";
    "in0=3,in1=200/4000: sat:3,200 evals=135 runs=83";
    "wide/4000: unknown evals=5003 runs=4505";
    "hash/4000: unknown evals=4009 runs=2657";
    "in2=9/4000: sat:0,0,9 evals=15 runs=10";
    "in2=9 seed/4000: sat:0,0,9 evals=2 runs=2" ]

let test_pipeline_pinned () =
  Alcotest.(check (list string)) "pipeline rows" pipeline_pinned
    (pipeline_rows (fun ~rng ~stats ?seed ~n_inputs ~max_evals cs ->
         S.solve_verdict ~rng ~stats ~mode:S.Pipeline ?seed ~n_inputs
           ~max_evals cs))

(* Pipeline's schedule spelled out over the public strategies, with local
   search given [ls_extra] evaluations beyond its quarter of the budget.
   At 0 it must reproduce the pins; one evaluation more is a seeded fault
   the pins must catch. *)
let pipeline_schedule ~ls_extra ~rng ~stats ?seed ~n_inputs ~max_evals cs =
  let q = S.compile_query cs in
  match S.entry_probe ~stats ?seed ~n_inputs q with
  | Some m -> S.V_sat m
  | None ->
    let bytes = S.relevant_bytes ~n_inputs cs in
    let ls_budget = if n_inputs <= 2 then max_evals / 4 else max_evals in
    let ls =
      S.strat_local_search ~stats ~deadline:0.0 ~rng ~n_inputs ~bytes ?seed q
    in
    match ls.S.st_step (ls_budget + ls_extra) with
    | S.Sr_found m -> S.V_sat m
    | _ when n_inputs > 2 -> S.V_unknown
    | _ ->
      let bytes = List.init n_inputs Fun.id in
      (match
         (S.strat_enumeration ~stats ~deadline:0.0 ~n_inputs ~bytes q).S.st_step
           max_evals
       with
       | S.Sr_found m -> S.V_sat m
       | S.Sr_exhausted true -> S.V_unsat
       | S.Sr_exhausted false | S.Sr_running -> S.V_unknown)

let test_pipeline_pin_catches_ls_budget () =
  Alcotest.(check (list string)) "the spelled-out schedule" pipeline_pinned
    (pipeline_rows (pipeline_schedule ~ls_extra:0));
  if pipeline_rows (pipeline_schedule ~ls_extra:1) = pipeline_pinned then
    Alcotest.fail "local search one evaluation over budget went unnoticed"

(* --- strategy ledger ---------------------------------------------------------

   Which strategy settles each race, on the solver benchmark's corpus
   (bench/solver_corpus.ml) run the way the benchmark runs it, minus the
   memo: Portfolio mode, 10 rounds, rng (round * 7919) + i.  Races the
   zero model or the seed settle never start; races no strategy settles
   within the budget have no winner. *)

let win_counts () = List.map (fun (n, c) -> (n, !c)) S.m_wins

let test_bench_corpus_ledger () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let races0 = !S.m_races and wins0 = win_counts () in
  let corpus = Solver_corpus.queries 42 in
  for round = 1 to 10 do
    List.iteri
      (fun i cs ->
         ignore
           (S.solve_verdict ~rng:(Util.Rng.create ((round * 7919) + i))
              ~mode:S.Portfolio ~n_inputs:2 ~max_evals:4_000 cs))
      corpus
  done;
  Alcotest.(check (list (pair string int))) "wins per strategy"
    [ ("races", 420); ("inversion", 150); ("interval", 10);
      ("enumeration", 0); ("local_search", 4) ]
    (("races", !S.m_races - races0)
     :: List.map2 (fun (n, w) (_, w0) -> (n, w - w0)) (win_counts ()) wins0)

let () =
  Alcotest.run "portfolio"
    [ ("verdicts",
       [ Alcotest.test_case "agree with brute-force oracle" `Quick
           test_verdicts_vs_oracle;
         Alcotest.test_case "unsat requires completeness" `Quick
           test_unsat_needs_completeness;
         Alcotest.test_case "unknown means all strategies fail" `Quick
           test_unknown_only_when_all_fail;
         Alcotest.test_case "inversion unsat needs the whole product" `Quick
           test_inversion_complete_only_on_full_product ]);
      ("determinism",
       [ Alcotest.test_case "seeded race is reproducible" `Quick
           test_deterministic_given_seed;
         Alcotest.test_case "win/loss counters" `Quick test_win_counters ]);
      ("deadlines",
       [ Alcotest.test_case "solve_verdict honors wall deadline" `Quick
           test_deadline_respected;
         Alcotest.test_case "enumerate honors wall deadline" `Quick
           test_enumerate_deadline ]);
      ("pipeline",
       [ Alcotest.test_case "pinned verdicts and counts" `Quick
           test_pipeline_pinned;
         Alcotest.test_case "pins catch a local-search budget off by one"
           `Quick test_pipeline_pin_catches_ls_budget ]);
      ("ledger",
       [ Alcotest.test_case "wins on the bench corpus" `Quick
           test_bench_corpus_ledger ]) ]

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

let () =
  Alcotest.run "portfolio"
    [ ("verdicts",
       [ Alcotest.test_case "agree with brute-force oracle" `Quick
           test_verdicts_vs_oracle;
         Alcotest.test_case "unsat requires completeness" `Quick
           test_unsat_needs_completeness;
         Alcotest.test_case "unknown means all strategies fail" `Quick
           test_unknown_only_when_all_fail ]);
      ("determinism",
       [ Alcotest.test_case "seeded race is reproducible" `Quick
           test_deterministic_given_seed;
         Alcotest.test_case "win/loss counters" `Quick test_win_counters ]);
      ("deadlines",
       [ Alcotest.test_case "solve_verdict honors wall deadline" `Quick
           test_deadline_respected;
         Alcotest.test_case "enumerate honors wall deadline" `Quick
           test_enumerate_deadline ]) ]

(* The solver benchmark's query corpus, shared with test/test_portfolio.ml
   (copied there by its dune file), whose strategy ledger is pinned on it.

   A seeded list of [n] symbolic-path queries over two input bytes: every
   third one is a shallow branch flip, the rest are mixing equations where
   the solver earns its keep or burns its budget. *)

module Sv = Symex.Solver
module Ex = Symex.Expr

let queries n =
  let r = Util.Rng.create 4242 in
  let byte () = Int64.of_int (Util.Rng.int r 256) in
  List.init n (fun i ->
      let h a b c1 c2 =
        Ex.bin Ex.Xor (Ex.bin Ex.Mul a (Ex.Const c1))
          (Ex.bin Ex.Mul b (Ex.Const c2))
      in
      if i mod 3 = 0 then
        (* shallow query: a concrete branch flip, cheap in every mode *)
        [ { Sv.cond = Ex.bin Ex.Eq (Ex.Input 0) (Ex.Const (byte ()));
            want = true } ]
      else begin
        (* mixing query: the solver earns its keep (or burns its budget) *)
        let c1 = Int64.of_int (131 + Util.Rng.int r 1000) in
        let c2 = Int64.of_int (77 + Util.Rng.int r 1000) in
        let target = h (Ex.Const (byte ())) (Ex.Const (byte ())) c1 c2 in
        [ { Sv.cond =
              Ex.bin Ex.Eq (h (Ex.Input 0) (Ex.Input 1) c1 c2) target;
            want = true };
          { Sv.cond = Ex.bin Ex.Ult (Ex.Input 0) (Ex.Const 251L);
            want = true } ]
      end)

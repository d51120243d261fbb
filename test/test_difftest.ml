(* Fast smoke tier for the differential fuzzer, wired into [dune runtest].

   The deep tier (500+ cases across presets) lives behind the @fuzz alias and
   check.sh; here we only pin down the properties the replay artifact relies
   on — deterministic generation, a clean small run of the four-way oracle,
   and the shrinker converging on a synthetic predicate. *)

open Diffuzz

(* Two runs over the same (seed, cases) must digest identically; a different
   seed must not.  This is what makes "--seed S --replay I" a repro. *)
let test_fingerprint_deterministic () =
  let a = Driver.fingerprint ~seed:42 ~cases:60 in
  let b = Driver.fingerprint ~seed:42 ~cases:60 in
  Alcotest.(check string) "same seed, same digest" a b;
  let c = Driver.fingerprint ~seed:43 ~cases:60 in
  Alcotest.(check bool) "different seed, different digest" true (a <> c)

(* Case generation is a pure function of (seed, index): regenerating a single
   case must reproduce it exactly, inputs included. *)
let test_case_replay () =
  for i = 0 to 19 do
    let a = Gen.case ~seed:7 i in
    let b = Gen.case ~seed:7 i in
    Alcotest.(check string)
      (Printf.sprintf "case %d regenerates" i)
      (Gen.to_string a) (Gen.to_string b)
  done

(* A small fixed-seed run through all four backends: interpreter, native,
   ROP-rewritten and VM-virtualized must agree on every case. *)
let test_oracle_smoke () =
  let s =
    Driver.run ~shrink:false Oracle.default_config ~seed:42 ~cases:20 ()
  in
  (match s.Driver.s_failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "discrepancy in case %d:\n%s" f.Driver.f_index
       (Driver.discrepancy_str f.Driver.f_first));
  (* the generator must actually exercise the rewriter, not just decline *)
  Alcotest.(check bool) "most cases ROP-rewritten" true
    (s.Driver.s_coverage.Coverage.rop_rewritten >= 15)

(* Shrinker end-to-end on a synthetic structural predicate: minimize to a
   case that still has >= 3 statements.  The result must satisfy the
   predicate, never grow, and land close to the bound. *)
let test_shrink_synthetic () =
  let case0 = Gen.case ~seed:42 0 in
  let size0 = Shrink.case_size case0 in
  Alcotest.(check bool) "initial case is non-trivial" true (size0 >= 3);
  let pred c = Shrink.case_size c >= 3 in
  let small = Shrink.minimize ~max_tests:800 ~pred case0 in
  let size = Shrink.case_size small in
  Alcotest.(check bool) "predicate still holds" true (pred small);
  Alcotest.(check bool) "did not grow" true (size <= size0);
  Alcotest.(check bool) "converged near the bound" true (size <= 6)

(* The CLI's preset table must contain the default and resolve by name. *)
let test_configs () =
  Alcotest.(check bool) "default preset exists" true
    (Oracle.find_config "default" = Some Oracle.default_config);
  Alcotest.(check bool) "unknown preset rejected" true
    (Oracle.find_config "nope" = None);
  Alcotest.(check bool) "native-only skips obfuscated legs" true
    (match Oracle.find_config "native-only" with
     | Some c -> c.Oracle.rop = None && c.Oracle.vm = None
     | None -> false);
  (* the ROPfuscator layer presets resolve and carry the layers they name *)
  let layer_of name =
    match Oracle.find_config name with
    | Some { Oracle.rop = Some cfg; _ } ->
      (cfg.Ropc.Config.opaque_constants, cfg.Ropc.Config.instr_hiding,
       cfg.Ropc.Config.per_function <> None)
    | _ -> Alcotest.failf "layer preset %s missing or has no ROP leg" name
  in
  Alcotest.(check (triple bool bool bool)) "rop-opaque" (true, false, false)
    (layer_of "rop-opaque");
  Alcotest.(check (triple bool bool bool)) "rop-hiding" (false, true, false)
    (layer_of "rop-hiding");
  Alcotest.(check (triple bool bool bool)) "rop-layered" (true, true, false)
    (layer_of "rop-layered");
  Alcotest.(check (triple bool bool bool)) "rop-perfunction" (true, true, true)
    (layer_of "rop-perfunction");
  Alcotest.(check bool) "rop-layered-verified runs the verifier" true
    (match Oracle.find_config "rop-layered-verified" with
     | Some c -> c.Oracle.verify
     | None -> false)

(* A small fixed-seed run of the strongest layer preset with the chain
   verifier on: the four-way oracle plus lib/verify must accept every case
   the layered rewriter emits. *)
let test_oracle_layered_smoke () =
  let config =
    match Oracle.find_config "rop-layered-verified" with
    | Some c -> c
    | None -> Alcotest.fail "rop-layered-verified preset missing"
  in
  let s = Driver.run ~shrink:false config ~seed:42 ~cases:12 () in
  (match s.Driver.s_failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "discrepancy in case %d:\n%s" f.Driver.f_index
       (Driver.discrepancy_str f.Driver.f_first));
  Alcotest.(check bool) "most cases ROP-rewritten" true
    (s.Driver.s_coverage.Coverage.rop_rewritten >= 9)

(* The cross-engine oracle names the first register, rip or flag on which
   two exit states differ, and nothing when they agree. *)
let test_state_diff () =
  let cpu () = Machine.Cpu.create (Machine.Memory.create ()) in
  let a = cpu () and b = cpu () in
  Alcotest.(check (option string)) "equal states" None (Oracle.state_diff a b);
  b.Machine.Cpu.pf <- true;
  Alcotest.(check (option string)) "flag" (Some "pf: fast=false ref=true")
    (Oracle.state_diff a b);
  Machine.Cpu.set_rip a 0x40L;
  Alcotest.(check (option string)) "rip before flags"
    (Some "rip: fast=64 ref=0") (Oracle.state_diff a b);
  Machine.Cpu.set b X86.Isa.R15 7L;
  Alcotest.(check (option string)) "registers first"
    (Some "r15: fast=0 ref=7") (Oracle.state_diff a b)

let () =
  Alcotest.run "difftest"
    [ ("determinism",
       [ Alcotest.test_case "fingerprint" `Quick test_fingerprint_deterministic;
         Alcotest.test_case "case replay" `Quick test_case_replay ]);
      ("oracle",
       [ Alcotest.test_case "20-case smoke, default config" `Quick
           test_oracle_smoke;
         Alcotest.test_case "12-case smoke, layered+verified" `Quick
           test_oracle_layered_smoke;
         Alcotest.test_case "preset table" `Quick test_configs;
         Alcotest.test_case "cross-engine exit state" `Quick test_state_diff ]);
      ("shrink",
       [ Alcotest.test_case "synthetic predicate" `Quick test_shrink_synthetic ])
    ]

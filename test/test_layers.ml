(* ROPfuscator layer suite: opaque-constant encoding, instruction hiding and
   per-function configs.  The differential core mirrors test_ropc.ml — rewrite
   and native must agree on every input — and is extended with non-vacuity
   checks on the audit (the layers must actually fire, or the differential
   wall proves nothing) and unit tests for the layer plumbing itself:
   the opaque-residual algebra, the per-function config resolver, and the
   Serve.Oneshot config-name bijection the caches and CLIs share. *)

open Minic.Ast

let rewrite_result ?(config = Ropc.Config.plain ()) prog fnames =
  let img = Minic.Codegen.compile prog in
  let r = Ropc.Rewriter.rewrite img ~functions:fnames ~config in
  List.iter
    (fun (f, res) ->
       match res with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "rewrite of %s failed: %s" f
           (Ropc.Rewriter.failure_to_string e))
    r.Ropc.Rewriter.funcs;
  (img, r)

let run img fname args =
  (Runner.call_exn ~fuel:100_000_000 img ~func:fname ~args).Runner.rax

let check_same ?config name prog fname inputs =
  let native_img, r = rewrite_result ?config prog [ fname ] in
  let rop_img = r.Ropc.Rewriter.image in
  List.iter
    (fun args ->
       let n = run native_img fname args in
       let v = run rop_img fname args in
       if n <> v then
         Alcotest.failf "%s: native=%Ld rop=%Ld on args %s" name n v
           (String.concat "," (List.map Int64.to_string args)))
    inputs

(* --- programs (same shapes as test_ropc.ml: loop, recursion, arrays) ------- *)

let fact_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "r"; "i" ] "fact"
        [ set "r" (c 1);
          For (set "i" (c 1), Bin (Les, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "r" (Bin (Mul, v "r", v "i")) ]);
          Return (v "r") ] ]

let fib_prog =
  program
    [ func ~params:[ "n" ] "fib"
        [ If (Bin (Lts, v "n", c 2),
              [ Return (v "n") ],
              [ Return
                  (Bin (Add,
                        call "fib" [ Bin (Sub, v "n", c 1) ],
                        call "fib" [ Bin (Sub, v "n", c 2) ])) ]) ] ]

let array_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "i"; "sum" ] ~arrays:[ ("buf", 64) ] "arrsum"
        [ For (set "i" (c 0), Bin (Lts, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ store8 (Bin (Add, Addr_local "buf", v "i"))
                   (Bin (Mul, v "i", v "i")) ]);
          set "sum" (c 0);
          For (set "i" (c 0), Bin (Lts, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "sum"
                   (Bin (Add, v "sum",
                         load8 (Bin (Add, Addr_local "buf", v "i")))) ]);
          Return (v "sum") ] ]

(* immediate-heavy, with zero / negative / large constants: the values the
   opaque encoder must round-trip exactly under int64 wrap-around *)
let consts_prog =
  program
    [ func ~params:[ "n" ] ~locals:[ "r" ] "konst"
        [ set "r" (c 0);
          If (Bin (Eq, v "n", c 0), [ Return (c 0) ], []);
          If (Bin (Eq, v "n", c 1), [ Return (c (-1)) ], []);
          If (Bin (Eq, v "n", c 2), [ Return (c 0x7FFFFFFF) ], []);
          If (Bin (Eq, v "n", c 3), [ Return (c (-0x80000000)) ], []);
          Return (Bin (Add, Bin (Mul, v "n", c 0x1234567), c (-42))) ] ]

let inputs_n = [ [ 0L ]; [ 1L ]; [ 2L ]; [ 5L ]; [ 8L ] ]

(* --- the opaque-residual algebra ------------------------------------------- *)

(* stored + mult*(residue+1) = value must hold for every int64 triple: the
   encoder relies on two's-complement wrap-around, so the identity has no
   range restriction — including 0, -1 and both int64 extremes. *)
let recovers ~value ~residue ~mult =
  let stored = Ropc.Chain.opaque_stored ~value ~residue ~mult in
  Int64.add stored (Int64.mul mult (Int64.add residue 1L)) = value

let test_opaque_algebra_edges () =
  let interesting =
    [ 0L; 1L; -1L; 2L; -2L; 42L; 0xDEADBEEFL; Int64.max_int; Int64.min_int;
      Int64.add Int64.max_int (-1L); Int64.add Int64.min_int 1L ]
  in
  List.iter
    (fun value ->
       List.iter
         (fun residue ->
            List.iter
              (fun mult ->
                 if not (recovers ~value ~residue ~mult) then
                   Alcotest.failf
                     "opaque_stored not invertible: value=%Ld residue=%Ld mult=%Ld"
                     value residue mult)
              interesting)
         interesting)
    interesting

let prop_opaque_algebra =
  QCheck.Test.make ~name:"opaque_stored invertible on random int64 triples"
    ~count:1000
    QCheck.(triple int64 int64 int64)
    (fun (value, residue, mult) -> recovers ~value ~residue ~mult)

(* --- encode -> emulate -> recover ------------------------------------------ *)

let layer_configs =
  [ ("+oc", fun seed -> Ropc.Config.rop_k ~seed ~opaque:true 1.0);
    ("+ih", fun seed -> Ropc.Config.rop_k ~seed ~hiding:true 1.0);
    ("+oc+ih", fun seed -> Ropc.Config.rop_k ~seed ~opaque:true ~hiding:true 1.0);
    ("+oc+ih+pf",
     fun seed ->
       Ropc.Config.rop_k ~seed ~opaque:true ~hiding:true ~pf:true 1.0) ]

let test_layers_fact () =
  List.iter
    (fun (tag, mk) ->
       List.iter
         (fun seed ->
            check_same ~config:(mk seed)
              (Printf.sprintf "fact%s seed=%d" tag seed)
              fact_prog "fact" inputs_n)
         [ 1; 2; 3 ])
    layer_configs

let test_layers_fib () =
  List.iter
    (fun (tag, mk) ->
       check_same ~config:(mk 1) ("fib" ^ tag) fib_prog "fib"
         [ [ 0L ]; [ 1L ]; [ 7L ]; [ 10L ] ])
    layer_configs

let test_layers_array () =
  List.iter
    (fun (tag, mk) ->
       check_same ~config:(mk 1) ("arrsum" ^ tag) array_prog "arrsum" inputs_n)
    layer_configs

let test_layers_consts () =
  List.iter
    (fun (tag, mk) ->
       List.iter
         (fun seed ->
            check_same ~config:(mk seed)
              (Printf.sprintf "konst%s seed=%d" tag seed)
              consts_prog "konst"
              [ [ 0L ]; [ 1L ]; [ 2L ]; [ 3L ]; [ 4L ]; [ 77L ]; [ -5L ] ])
         [ 1; 2 ])
    layer_configs

(* random corpus x layer config x input: the qcheck leg of the wall *)
let corpus_lazy = lazy (Minic.Randomfuns.corpus ())

let prop_layers_differential =
  QCheck.Test.make ~name:"layered rop = native on random corpus inputs"
    ~count:25
    QCheck.(triple (int_range 0 71) (int_range 0 3) (map Int64.of_int int))
    (fun (idx, cfg_idx, input) ->
       let t = List.nth (Lazy.force corpus_lazy) idx in
       let _, mk = List.nth layer_configs cfg_idx in
       let input = Int64.logand input t.Minic.Randomfuns.input_mask in
       let native_img, r = rewrite_result ~config:(mk 1) t.prog [ "target" ] in
       run native_img "target" [ input ]
       = run r.Ropc.Rewriter.image "target" [ input ])

(* --- audit non-vacuity ----------------------------------------------------- *)

module A = Ropc.Audit

let audit_of ~config prog fnames =
  let _, r = rewrite_result ~config prog fnames in
  Lazy.force r.Ropc.Rewriter.audit

(* +oc must actually emit opaque slots, each recoverable against the P1
   array ground truth recorded in the same audit; every opaque load ends in
   the jmp-reg dispatch slot that rejoins the chain. *)
let test_opaque_nonvacuous () =
  let audit =
    audit_of ~config:(Ropc.Config.rop_k ~opaque:true 1.0) fact_prog [ "fact" ]
  in
  let opaques = ref 0 and dispatches = ref 0 in
  List.iter
    (fun (f : A.func) ->
       let p1 =
         match f.A.f_p1 with
         | Some (_, _, a) -> a
         | None -> Alcotest.fail "opaque config rewrote without a P1 array"
       in
       Array.iter
         (fun (_, s) ->
            match s with
            | Ropc.Chain.S_opaque { oq_value; oq_cls; oq_residue; oq_mult } ->
              incr opaques;
              if oq_cls < 0 || oq_cls >= Array.length p1 then
                Alcotest.failf "opaque class %d outside P1 array" oq_cls;
              if Int64.of_int p1.(oq_cls) <> oq_residue then
                Alcotest.failf
                  "audited residue %Ld disagrees with P1 class %d (= %d)"
                  oq_residue oq_cls p1.(oq_cls);
              if not (recovers ~value:oq_value ~residue:oq_residue ~mult:oq_mult)
              then Alcotest.failf "slot for %Ld not recoverable" oq_value
            | Ropc.Chain.S_opaque_dispatch _ -> incr dispatches
            | _ -> ())
         f.A.f_layout)
    audit.A.a_funcs;
  if !opaques = 0 then
    Alcotest.fail "+oc at p=60, k=1.0 emitted no opaque slots (vacuous test)";
  if !dispatches = 0 then
    Alcotest.fail "+oc emitted opaque slots but no dispatch trampolines"

(* +ih must mark hidden-payload byte ranges on some audited points, and the
   ranges must be well-formed and lie inside the point's slot span. *)
let test_hiding_nonvacuous () =
  let audit =
    audit_of ~config:(Ropc.Config.rop_k ~hiding:true 1.0) fact_prog [ "fact" ]
  in
  let hidden = ref 0 in
  List.iter
    (fun (f : A.func) ->
       List.iter
         (fun (p : A.point) ->
            match p.A.p_hidden with
            | None -> ()
            | Some (lo, hi) ->
              incr hidden;
              if lo < 0 || hi <= lo then
                Alcotest.failf "malformed hidden range [%d,%d) at %s" lo hi
                  p.A.p_desc;
              if
                not
                  (Array.exists (fun (off, _) -> off >= lo && off < hi)
                     p.A.p_slots)
              then
                Alcotest.failf "hidden range [%d,%d) covers no slot of %s" lo
                  hi p.A.p_desc)
         f.A.f_points)
    audit.A.a_funcs;
  if !hidden = 0 then
    Alcotest.fail "+ih at k=1.0 hid no payloads (vacuous test)"

(* without the layers, no layer artifacts may leak into the audit *)
let test_layers_off_by_default () =
  let audit =
    audit_of ~config:(Ropc.Config.rop_k 1.0) fact_prog [ "fact" ]
  in
  List.iter
    (fun (f : A.func) ->
       Array.iter
         (fun (_, s) ->
            match s with
            | Ropc.Chain.S_opaque _ | Ropc.Chain.S_opaque_dispatch _ ->
              Alcotest.fail "opaque slot emitted with opaque_constants=false"
            | _ -> ())
         f.A.f_layout;
       List.iter
         (fun (p : A.point) ->
            if p.A.p_hidden <> None then
              Alcotest.fail "hidden range recorded with instr_hiding=false")
         f.A.f_points)
    audit.A.a_funcs

(* --- per-function config resolution ---------------------------------------- *)

let test_for_function () =
  let strong = Ropc.Config.rop_k ~seed:7 ~opaque:true ~hiding:true ~pf:true 1.0 in
  (* find one name on each side of the byte-sum parity heuristic *)
  let sensitive, weak =
    if Ropc.Config.name_sensitive "target" then ("target", "helper")
    else ("helper", "target")
  in
  Alcotest.(check bool)
    "heuristic splits target/helper" true
    (Ropc.Config.name_sensitive sensitive
     && not (Ropc.Config.name_sensitive weak));
  let s = Ropc.Config.for_function strong sensitive in
  Alcotest.(check bool) "sensitive keeps opaque layer" true
    s.Ropc.Config.opaque_constants;
  Alcotest.(check bool) "sensitive keeps hiding layer" true
    s.Ropc.Config.instr_hiding;
  Alcotest.(check bool) "resolved config does not recurse" true
    (s.Ropc.Config.per_function = None);
  let w = Ropc.Config.for_function strong weak in
  Alcotest.(check bool) "weak side drops opaque layer" false
    w.Ropc.Config.opaque_constants;
  Alcotest.(check bool) "weak side drops hiding layer" false
    w.Ropc.Config.instr_hiding;
  Alcotest.(check int) "weak side inherits parent seed" 7 w.Ropc.Config.seed;
  Alcotest.(check bool) "weak side does not recurse" true
    (w.Ropc.Config.per_function = None);
  (* explicit sensitivity list overrides the heuristic *)
  let listed =
    { strong with
      Ropc.Config.per_function =
        (match strong.Ropc.Config.per_function with
         | Some pf ->
           Some { pf with Ropc.Config.pf_sensitive = Some [ weak ] }
         | None -> None) }
  in
  Alcotest.(check bool) "listed name gets strong config" true
    (Ropc.Config.for_function listed weak).Ropc.Config.opaque_constants;
  Alcotest.(check bool) "unlisted name gets weak config" false
    (Ropc.Config.for_function listed sensitive).Ropc.Config.opaque_constants;
  (* no split: for_function is the identity *)
  let base = Ropc.Config.rop_k ~opaque:true 0.5 in
  Alcotest.(check bool) "no split: identity" true
    (Ropc.Config.for_function base "anything" = base)

(* a two-function program under +pf, with one name on each side of the
   sensitivity heuristic ("main" is sensitive, "helper" is not): both sides
   of the split must still be behaviourally faithful *)
let two_fn_prog =
  program
    [ func ~params:[ "x" ] "helper" [ Return (Bin (Mul, v "x", c 3)) ];
      func ~params:[ "n" ] ~locals:[ "acc"; "i" ] "main"
        [ set "acc" (c 0);
          For (set "i" (c 0), Bin (Lts, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "acc" (Bin (Add, v "acc", call "helper" [ v "i" ])) ]);
          Return (v "acc") ] ]

let test_perfunction_differential () =
  let config = Ropc.Config.rop_k ~opaque:true ~hiding:true ~pf:true 1.0 in
  let native_img, r = rewrite_result ~config two_fn_prog [ "main"; "helper" ] in
  List.iter
    (fun args ->
       let n = run native_img "main" args in
       let v = run r.Ropc.Rewriter.image "main" args in
       if n <> v then
         Alcotest.failf "main+pf: native=%Ld rop=%Ld" n v)
    inputs_n;
  (* the two sides must genuinely differ: exactly the sensitive functions
     carry opaque slots *)
  let opaque_funcs =
    List.filter_map
      (fun (f : A.func) ->
         if
           Array.exists
             (fun (_, s) ->
                match s with Ropc.Chain.S_opaque _ -> true | _ -> false)
             f.A.f_layout
         then Some f.A.f_name
         else None)
      (Lazy.force r.Ropc.Rewriter.audit).A.a_funcs
  in
  List.iter
    (fun fname ->
       let expected = Ropc.Config.name_sensitive fname in
       let got = List.mem fname opaque_funcs in
       if expected <> got then
         Alcotest.failf "%s: sensitive=%b but has-opaque-slots=%b" fname
           expected got)
    [ "main"; "helper" ]

(* --- Serve.Oneshot config naming bijection --------------------------------- *)

let test_config_name_roundtrip () =
  (* every matrix row's name parses back, and re-describing the parsed
     config is stable (same describe string as parsing the name twice) *)
  List.iter
    (fun (name, cfg) ->
       match Serve.Oneshot.config_of_name ~seed:1 name with
       | Error e -> Alcotest.failf "matrix name %s does not parse: %s" name e
       | Ok parsed ->
         Alcotest.(check string)
           (Printf.sprintf "matrix row %s round-trips" name)
           (Ropc.Config.describe cfg)
           (Ropc.Config.describe parsed))
    (Serve.Oneshot.config_matrix 1);
  (* flag combinations round-trip through config_name -> config_of_name *)
  List.iter
    (fun (opaque, hiding, pf) ->
       let name =
         Serve.Oneshot.config_name ~opaque ~hiding ~pf ~plain:false 0.5
       in
       match Serve.Oneshot.config_of_name ~seed:3 name with
       | Error e -> Alcotest.failf "%s does not parse: %s" name e
       | Ok cfg ->
         Alcotest.(check bool) (name ^ " oc") opaque
           cfg.Ropc.Config.opaque_constants;
         Alcotest.(check bool) (name ^ " ih") hiding
           cfg.Ropc.Config.instr_hiding;
         Alcotest.(check bool) (name ^ " pf") pf
           (cfg.Ropc.Config.per_function <> None))
    [ (false, false, false); (true, false, false); (false, true, false);
      (true, true, false); (true, true, true); (false, false, true) ];
  (* malformed layer suffixes are rejected, not silently ignored *)
  List.iter
    (fun bad ->
       match Serve.Oneshot.config_of_name ~seed:1 bad with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "bogus config name %S parsed" bad)
    [ "plain+oc"; "rop0.5+ocx"; "rop0.5+hide"; "rop2.0+oc" ]

let () =
  Alcotest.run "layers"
    [ ("algebra",
       [ Alcotest.test_case "opaque_stored edges" `Quick
           test_opaque_algebra_edges;
         QCheck_alcotest.to_alcotest prop_opaque_algebra ]);
      ("differential",
       [ Alcotest.test_case "fact x layers x seeds" `Quick test_layers_fact;
         Alcotest.test_case "fib x layers" `Quick test_layers_fib;
         Alcotest.test_case "arrays x layers" `Quick test_layers_array;
         Alcotest.test_case "constants x layers" `Quick test_layers_consts;
         QCheck_alcotest.to_alcotest prop_layers_differential ]);
      ("audit",
       [ Alcotest.test_case "opaque slots non-vacuous" `Quick
           test_opaque_nonvacuous;
         Alcotest.test_case "hidden ranges non-vacuous" `Quick
           test_hiding_nonvacuous;
         Alcotest.test_case "layers off by default" `Quick
           test_layers_off_by_default ]);
      ("perfunction",
       [ Alcotest.test_case "for_function resolution" `Quick test_for_function;
         Alcotest.test_case "split differential" `Quick
           test_perfunction_differential ]);
      ("naming",
       [ Alcotest.test_case "oneshot round-trip" `Quick
           test_config_name_roundtrip ]) ]

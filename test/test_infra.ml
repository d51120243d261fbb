(* Infrastructure tests: deterministic RNG, gadget finder/pool, chain
   materializer, and the symbolic assembler/linker. *)

open X86.Isa

(* --- rng ------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Util.Rng.create 7 in
  let b = Util.Rng.create 7 in
  for _ = 0 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next64 a) (Util.Rng.next64 b)
  done

let prop_rng_range =
  QCheck.Test.make ~name:"rng range stays in bounds" ~count:500
    QCheck.(pair small_nat (pair small_nat small_nat))
    (fun (seed, (lo0, span)) ->
       let rng = Util.Rng.create seed in
       let lo = lo0 and hi = lo0 + span in
       let v = Util.Rng.range rng lo hi in
       lo <= v && v <= hi)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_nat (small_list small_int))
    (fun (seed, xs) ->
       let rng = Util.Rng.create seed in
       List.sort compare (Util.Rng.shuffle rng xs) = List.sort compare xs)

(* --- gadget finder ------------------------------------------------------------ *)

let test_finder_finds_planted () =
  (* plant pop rdi; ret in a byte soup and find it *)
  let planted = X86.Encode.encode_list [ Pop (Reg RDI); Ret ] in
  let soup = Bytes.concat Bytes.empty
      [ Bytes.of_string "\xff\xff\x01\x01"; planted; Bytes.of_string "\xff" ]
  in
  let gs = Finder.scan ~base:0x1000L soup in
  Alcotest.(check bool) "found pop rdi; ret" true
    (List.exists
       (fun g -> g.Gadget.body = [ Pop (Reg RDI) ])
       gs)

let test_finder_unaligned () =
  (* gadget bytes visible only at an unaligned offset still found *)
  let instrs = [ Mov (W64, Reg RAX, Imm 0x1122334455667788L); Ret ] in
  let buf = X86.Encode.encode_list instrs in
  let gs = Finder.scan ~base:0L buf in
  (* at minimum the suffix `ret` at the last byte *)
  Alcotest.(check bool) "suffixes found" true (List.length gs >= 1)

let test_pool_diversifies () =
  let rng = Util.Rng.create 3 in
  let pool = Pool.create ~variants:4 ~rng ~next_addr:0x5000L [] in
  let addrs =
    List.init 40 (fun _ ->
        Pool.request ~clobberable:[ R12 ] pool [ Pop (Reg RCX) ])
  in
  let uniq = List.sort_uniq compare addrs in
  Alcotest.(check bool) "several variants served" true (List.length uniq >= 2);
  let uses, unique = Pool.stats pool in
  Alcotest.(check int) "uses counted" 40 uses;
  Alcotest.(check int) "unique tracked" (List.length uniq) unique;
  (* emitted bytes decode back to gadgets ending in ret *)
  let b = Pool.emitted_bytes pool in
  Alcotest.(check bool) "emitted nonempty" true (Bytes.length b > 0)

let test_pool_prefers_found () =
  let rng = Util.Rng.create 3 in
  let found =
    [ { Gadget.addr = 0x400100L; body = [ Pop (Reg RAX) ];
        ending = Gadget.E_ret } ]
  in
  let pool = Pool.create ~variants:1 ~rng ~next_addr:0x5000L found in
  (* with variants=1 the found gadget is always reused *)
  let ok = ref true in
  for _ = 0 to 20 do
    let a = Pool.request pool [ Pop (Reg RAX) ] in
    if a <> 0x400100L && a < 0x5000L then ok := false
  done;
  Alcotest.(check bool) "found gadget reachable" !ok true

(* --- chain materializer -------------------------------------------------------- *)

let test_chain_displacements () =
  let ch = Ropc.Chain.create () in
  Ropc.Chain.gadget ch 0x400000L;
  Ropc.Chain.disp ch ~target:"blk" ~anchor:"a0" ~bias:0L;
  Ropc.Chain.gadget ch 0x400008L;
  Ropc.Chain.anchor ch "a0";
  Ropc.Chain.gadget ch 0x400010L;
  Ropc.Chain.label ch "blk";
  Ropc.Chain.gadget ch 0x400018L;
  let m = Ropc.Chain.materialize ~base:0xA00000L ch in
  (* slots: [g][disp][g] a0 [g] blk [g]: disp value = off(blk)-off(a0) = 8 *)
  let disp_bytes = Bytes.sub m.Ropc.Chain.bytes 8 8 in
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get disp_bytes i)))
  done;
  Alcotest.(check int64) "displacement" 8L !v;
  Alcotest.(check int64) "label addr" 0xA00020L (Ropc.Chain.label_addr m "blk")

let test_chain_bias () =
  let ch = Ropc.Chain.create () in
  Ropc.Chain.disp ch ~target:"t" ~anchor:"a" ~bias:5L;
  Ropc.Chain.anchor ch "a";
  Ropc.Chain.label ch "t";
  let m = Ropc.Chain.materialize ~base:0L ch in
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get m.Ropc.Chain.bytes i)))
  done;
  (* target at off 8, anchor at off 8 -> delta 0; minus bias = -5 *)
  Alcotest.(check int64) "biased displacement" (-5L) !v

let test_chain_skew () =
  let ch = Ropc.Chain.create () in
  Ropc.Chain.gadget ch 0x11L;
  Ropc.Chain.skew ch 3;
  Ropc.Chain.gadget ch 0x22L;
  let m = Ropc.Chain.materialize ~base:0L ch in
  Alcotest.(check int) "unaligned total" (8 + 3 + 8) (Bytes.length m.Ropc.Chain.bytes);
  Alcotest.(check char) "second gadget at unaligned offset" '\x22'
    (Bytes.get m.Ropc.Chain.bytes 11)

let test_chain_undefined_label () =
  let ch = Ropc.Chain.create () in
  Ropc.Chain.disp ch ~target:"nope" ~anchor:"a" ~bias:0L;
  Ropc.Chain.anchor ch "a";
  Alcotest.check_raises "undefined label"
    (Ropc.Chain.Materialize_error "undefined chain label nope")
    (fun () -> ignore (Ropc.Chain.materialize ~base:0L ch))

let test_chain_duplicate_label () =
  let ch = Ropc.Chain.create () in
  Ropc.Chain.label ch "x";
  Ropc.Chain.gadget ch 0x11L;
  Ropc.Chain.anchor ch "x";
  Alcotest.check_raises "duplicate label"
    (Ropc.Chain.Materialize_error "duplicate label x")
    (fun () -> ignore (Ropc.Chain.materialize ~base:0L ch))

(* Oracle for the compact chain store: the straightforward list-fold
   materializer (offsets in one pass, bytes in a second) over the symbolic
   slot sequence. *)
module Chain_oracle = struct
  open Ropc.Chain

  let materialize ~junk slots =
    let offsets = Hashtbl.create 32 in
    let layout_rev = ref [] in
    let total =
      List.fold_left
        (fun off s ->
           (match s with
            | S_label name | S_anchor name ->
              if Hashtbl.mem offsets name then
                raise (Materialize_error ("duplicate label " ^ name));
              Hashtbl.replace offsets name off
            | _ -> ());
           layout_rev := (off, s) :: !layout_rev;
           off + slot_size s)
        0 slots
    in
    let buf = Bytes.create total in
    let write64 off v =
      for i = 0 to 7 do
        Bytes.set buf (off + i)
          (Char.chr
             (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
      done
    in
    let lookup name =
      match Hashtbl.find_opt offsets name with
      | Some o -> o
      | None -> raise (Materialize_error ("undefined chain label " ^ name))
    in
    ignore
      (List.fold_left
         (fun off s ->
            (match s with
             | S_gadget a | S_imm a -> write64 off a
             | S_opaque { oq_value; oq_residue; oq_mult; _ } ->
               write64 off
                 (opaque_stored ~value:oq_value ~residue:oq_residue
                    ~mult:oq_mult)
             | S_opaque_dispatch { od_jop; _ } -> write64 off od_jop
             | S_disp { target; anchor; bias } ->
               write64 off
                 (Int64.sub (Int64.of_int (lookup target - lookup anchor)) bias)
             | S_skew eta ->
               for i = 0 to eta - 1 do
                 Bytes.set buf (off + i) (Char.chr (junk i))
               done
             | S_label _ | S_anchor _ -> ());
            off + slot_size s)
         0 slots);
    (buf, offsets, Array.of_list (List.rev !layout_rev))

  let push ch = function
    | S_gadget a -> gadget ch a
    | S_imm v -> imm ch v
    | S_disp { target; anchor = a; bias } -> disp ch ~target ~anchor:a ~bias
    | S_opaque { oq_value; oq_cls; oq_residue; oq_mult } ->
      opaque ch ~value:oq_value ~cls:oq_cls ~residue:oq_residue ~mult:oq_mult
    | S_opaque_dispatch { od_jop; od_target } ->
      opaque_dispatch ch ~jop:od_jop ~target:od_target
    | S_label n -> label ch n
    | S_anchor n -> anchor ch n
    | S_skew eta -> skew ch eta
end

(* A random push sequence over all eight slot kinds: skews of 1-7 bytes,
   P1-style displacement biases, labels and anchors placed in any order
   (every name a displacement refers to is placed somewhere); now and then
   a duplicate or an undefined name, so the error paths are compared too. *)
let random_slots seed len =
  let open Ropc.Chain in
  let rng = Util.Rng.create seed in
  let r n = Util.Rng.int rng n in
  let names = Array.init (1 + r 6) (Printf.sprintf "L%d") in
  let unplaced = ref (Array.to_list names) in
  let faulty = r 20 = 0 in
  let name () =
    if faulty && r 10 = 0 then "undef" else names.(r (Array.length names))
  in
  let place n = if r 2 = 0 then S_label n else S_anchor n in
  let slot () =
    match r 8 with
    | 0 -> S_gadget (Util.Rng.next64 rng)
    | 1 -> S_imm (Util.Rng.next64 rng)
    | 2 ->
      let bias = if r 2 = 0 then 0L else Int64.of_int (r 1000) in
      S_disp { target = name (); anchor = name (); bias }
    | 3 ->
      S_opaque { oq_value = Util.Rng.next64 rng; oq_cls = r 4;
                 oq_residue = Int64.of_int (r 97);
                 oq_mult = Int64.of_int (1 + r 4096) }
    | 4 ->
      S_opaque_dispatch { od_jop = Util.Rng.next64 rng;
                          od_target = Util.Rng.next64 rng }
    | 5 | 6 ->
      (match !unplaced with
       | n :: rest when not (faulty && r 4 = 0) ->
         unplaced := rest;
         place n
       | _ -> place (names.(r (Array.length names))))
    | _ -> S_skew (1 + r 7)
  in
  let body = List.init len (fun _ -> slot ()) in
  body @ List.map place !unplaced

let prop_chain_store_matches_oracle =
  QCheck.Test.make ~name:"chain store = list-fold materializer" ~count:500
    QCheck.(pair small_nat (int_bound 300))
    (fun (seed, len) ->
       let slots = random_slots seed len in
       let junk () =
         let rng = Util.Rng.create (seed + 17) in
         fun _ -> Util.Rng.int rng 256
       in
       let expected =
         match Chain_oracle.materialize ~junk:(junk ()) slots with
         | v -> Ok v
         | exception Ropc.Chain.Materialize_error m -> Error m
       in
       let ch = Ropc.Chain.create () in
       List.iter (Chain_oracle.push ch) slots;
       let sorted h =
         List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
       in
       Ropc.Chain.length ch = List.length slots
       &&
       match expected, Ropc.Chain.materialize ~junk:(junk ()) ~base:0L ch with
       | Ok (bytes, offsets, layout), m ->
         Bytes.equal bytes m.Ropc.Chain.bytes
         && sorted offsets = sorted m.Ropc.Chain.offsets
         && layout = Lazy.force m.Ropc.Chain.layout
       | Error _, _ -> false
       | exception Ropc.Chain.Materialize_error m -> expected = Error m)

(* --- assembler/linker ------------------------------------------------------------ *)

let test_asm_label_resolution () =
  (* forward and backward local jumps *)
  let items =
    [ Asm.Ins (Mov (W64, Reg RAX, Imm 0L));
      Asm.Label "loop";
      Asm.Ins (Alu (Add, W64, Reg RAX, Imm 3L));
      Asm.Ins (Alu (Cmp, W64, Reg RAX, Imm 9L));
      Asm.Jcc_l (B, "loop");
      Asm.Ins Ret ]
  in
  let u = { Asm.u_functions = [ ("f", items) ]; u_data = [] } in
  let img = Asm.link u in
  let r = Runner.call_exn img ~func:"f" ~args:[] in
  Alcotest.(check int64) "loop ran 3 times" 9L r.Runner.rax

let test_asm_call_and_data () =
  let callee = [ Asm.Ins (Mov (W64, Reg RAX, Imm 5L)); Asm.Ins Ret ] in
  let caller =
    [ Asm.Call_s "callee";
      Asm.Lea_s (RCX, "blob");
      Asm.Ins (Alu (Add, W64, Reg RAX, Mem (mem_b RCX 0)));
      Asm.Ins Ret ]
  in
  let u =
    { Asm.u_functions = [ ("callee", callee); ("main", caller) ];
      u_data = [ ("blob", [ Asm.D_quad 37L ]) ] }
  in
  let img = Asm.link u in
  Alcotest.(check int64) "call + data" 42L
    (Runner.call_exn img ~func:"main" ~args:[]).Runner.rax

let test_image_patch_and_append () =
  let u =
    { Asm.u_functions = [ ("f", [ Asm.Ins Ret ]) ];
      u_data = [ ("d", [ Asm.D_quad 1L ]) ] }
  in
  let img = Asm.link u in
  let d = Image.symbol_addr img "d" in
  Image.patch img d 8 0xDEADL;
  let mem = Image.load img in
  Alcotest.(check int64) "patched" 0xDEADL (Machine.Memory.read_u64 mem d);
  let a = Image.append img ".text" (Bytes.of_string "\x02") in
  Alcotest.(check bool) "appended past old end" true (Int64.compare a Image.text_base > 0)

let () =
  Alcotest.run "infra"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         QCheck_alcotest.to_alcotest prop_rng_range;
         QCheck_alcotest.to_alcotest prop_rng_shuffle_permutes ]);
      ("gadget",
       [ Alcotest.test_case "finder finds planted" `Quick test_finder_finds_planted;
         Alcotest.test_case "finder unaligned" `Quick test_finder_unaligned;
         Alcotest.test_case "pool diversifies" `Quick test_pool_diversifies;
         Alcotest.test_case "pool uses found" `Quick test_pool_prefers_found ]);
      ("chain",
       [ Alcotest.test_case "displacements" `Quick test_chain_displacements;
         Alcotest.test_case "bias" `Quick test_chain_bias;
         Alcotest.test_case "skew" `Quick test_chain_skew;
         Alcotest.test_case "undefined label" `Quick test_chain_undefined_label;
         Alcotest.test_case "duplicate label" `Quick test_chain_duplicate_label;
         QCheck_alcotest.to_alcotest prop_chain_store_matches_oracle ]);
      ("asm",
       [ Alcotest.test_case "labels" `Quick test_asm_label_resolution;
         Alcotest.test_case "calls and data" `Quick test_asm_call_and_data;
         Alcotest.test_case "patch/append" `Quick test_image_patch_and_append ]) ]

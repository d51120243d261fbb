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

(* Literal streams recorded before the generator's state moved into an
   unboxed byte store: the layout changed, the draws must not. *)
let test_rng_stream_pins () =
  let module R = Util.Rng in
  let ints r bound n = List.init n (fun _ -> R.int r bound) in
  let r = R.create 1 in
  Alcotest.(check (list int)) "create 1, int 1000"
    [ 616; 129; 647; 58; 190; 512; 761; 133 ] (ints r 1000 8);
  Alcotest.(check (list int)) "int 2^40 keeps the high bits"
    [ 238595051370; 152959474149; 127780885464 ] (ints r (1 lsl 40) 3);
  let s = R.split r in
  Alcotest.(check int64) "split" 8141976017713698904L (R.next64 s);
  Alcotest.(check (list int)) "parent after split"
    [ 347696; 84130; 790954; 649934 ] (ints r 1_000_000 4);
  let k = R.of_key ~seed:7 "fact/rop0.5" in
  Alcotest.(check int64) "of_key" (-7908798123520636211L) (R.next64 k);
  Alcotest.(check (list int)) "of_key, int 100" [ 43; 95; 19; 92 ] (ints k 100 4);
  Alcotest.(check (list int)) "shuffle"
    [ 5; 9; 6; 1; 4; 0; 2; 8; 3; 7 ]
    (R.shuffle (R.create 2) (List.init 10 Fun.id));
  let a = R.create 3 in
  ignore (R.int a 5);
  let c = R.copy a in
  Alcotest.(check int64) "copy, 1st" (-5528608851982440055L) (R.next64 c);
  Alcotest.(check int64) "copy, 2nd" (-7139356981108613887L) (R.next64 c);
  Alcotest.(check int64) "the copy's draws leave the original alone"
    (-5528608851982440055L) (R.next64 a)

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

(* --- pool reference model ------------------------------------------------------ *)

(* The list-based pool the current one replaced, kept as the reference: a
   request filters [found @ synthesized] afresh, and unique uses are a table
   of addresses.  Draw for draw, it is the pool's specification. *)
module Pool_model = struct
  type entry = { gadget : Gadget.t; prefix : reg list; is_found : bool }

  type t = {
    rng : Util.Rng.t;
    found : (Gadget.key, entry list) Hashtbl.t;
    synthesized : (Gadget.key, entry list) Hashtbl.t;
    mutable next_addr : int64;
    mutable emitted : entry list;
    variants : int;
    dead_prefix_prob : int;
    mutable uses : int;
    used_addrs : (int64, unit) Hashtbl.t;
  }

  let create ~variants ~dead_prefix_prob ~rng ~next_addr found_list =
    let found = Hashtbl.create 256 in
    List.iter
      (fun g ->
         let k = Gadget.key g in
         let prev = Option.value (Hashtbl.find_opt found k) ~default:[] in
         Hashtbl.replace found k
           ({ gadget = g; prefix = []; is_found = true } :: prev))
      found_list;
    { rng; found; synthesized = Hashtbl.create 256; next_addr; emitted = [];
      variants; dead_prefix_prob; uses = 0; used_addrs = Hashtbl.create 256 }

  let dead_prefix t ~clobberable =
    match clobberable with
    | [] -> ([], [])
    | regs when Util.Rng.int t.rng 100 < t.dead_prefix_prob ->
      let r = Util.Rng.choose t.rng regs in
      let ins =
        match Util.Rng.int t.rng 4 with
        | 0 -> [ Mov (W64, Reg r, Imm (Int64.of_int (Util.Rng.int t.rng 4096))) ]
        | 1 -> [ Alu (Xor, W64, Reg r, Reg r) ]
        | 2 -> [ Unary (Not, W64, Reg r) ]
        | _ -> [ Lea (r, { base = Some r; index = None; disp = 0L }) ]
      in
      (ins, [ r ])
    | _ -> ([], [])

  let synthesize t ~ending ~clobberable body =
    let prefix_ins, prefix = dead_prefix t ~clobberable in
    let g = { Gadget.addr = t.next_addr; body = prefix_ins @ body; ending } in
    t.next_addr <- Int64.add t.next_addr (Int64.of_int (Gadget.length g));
    let e = { gadget = g; prefix; is_found = false } in
    t.emitted <- e :: t.emitted;
    e

  let record_use t e =
    t.uses <- t.uses + 1;
    Hashtbl.replace t.used_addrs e.gadget.Gadget.addr ();
    e.gadget.Gadget.addr

  let usable ~clobberable e =
    List.for_all (fun r -> List.mem r clobberable) e.prefix

  let add_synth t key e =
    let prev = Option.value (Hashtbl.find_opt t.synthesized key) ~default:[] in
    Hashtbl.replace t.synthesized key (e :: prev)

  let request ~clobberable t body =
    let candidates =
      List.filter (usable ~clobberable)
        (Option.value (Hashtbl.find_opt t.found body) ~default:[]
         @ Option.value (Hashtbl.find_opt t.synthesized body) ~default:[])
    in
    let e =
      if candidates = [] || List.length candidates < t.variants
         && Util.Rng.int t.rng 100 < 30
      then begin
        let e = synthesize t ~ending:Gadget.E_ret ~clobberable body in
        add_synth t body e;
        e
      end
      else Util.Rng.choose t.rng candidates
    in
    record_use t e

  let request_jop ~clobberable t body =
    let cached =
      match Hashtbl.find_opt t.synthesized body with
      | Some es -> List.find_opt (usable ~clobberable) es
      | None -> None
    in
    match cached with
    | Some e -> record_use t e
    | None ->
      let e = synthesize t ~ending:(Gadget.E_jop RAX) ~clobberable body in
      add_synth t body e;
      record_use t e

  let emitted_bytes t =
    let buf = Buffer.create 1024 in
    List.iter (fun e -> Buffer.add_bytes buf (Gadget.encode e.gadget))
      (List.rev t.emitted);
    Buffer.to_bytes buf

  let all_gadgets t =
    Hashtbl.fold (fun _ es acc -> es @ acc) t.found [] @ List.rev t.emitted

  let stats t = (t.uses, Hashtbl.length t.used_addrs)

  let reset_stats t =
    t.uses <- 0;
    Hashtbl.reset t.used_addrs
end

(* Bodies a stream draws from: ret-style and jmp-ending ones, requested
   through either entry point, so buckets are shared the way the rewriter
   shares them. *)
let model_bodies =
  [| [ Pop (Reg RCX) ];
     [ Pop (Reg RAX) ];
     [ Mov (W64, Reg RAX, Reg RCX) ];
     [ Alu (Add, W64, Reg RSP, Reg RCX) ];
     [ Jmp (J_op (Reg RAX)) ];
     [ Xchg (W64, Reg RSP, Mem (mem_b RCX 0)); Jmp (J_op (Reg RDX)) ] |]

(* Clobberable set [c]: a subset of R12..R15 (bits 0-3), reversed when bit
   4 is set, since [dead_prefix] picks by list position. *)
let clobber_set c =
  let regs =
    List.filteri (fun i _ -> c land (1 lsl i) <> 0) [ R12; R13; R14; R15 ]
  in
  if c land 16 <> 0 then List.rev regs else regs

type pool_op = Req of int * int | Jop of int * int | Reset

let gen_pool_case =
  let open QCheck.Gen in
  let nb = Array.length model_bodies - 1 in
  let* seed = int_bound 100_000 in
  let* variants = int_range 1 4 in
  let* prob = int_bound 100 in
  let* found = list_size (int_bound 6) (int_bound nb) in
  let+ ops =
    list_size (int_range 1 300)
      (frequency
         [ (8, map2 (fun b c -> Req (b, c)) (int_bound nb) (int_bound 31));
           (3, map2 (fun b c -> Jop (b, c)) (int_bound nb) (int_bound 31));
           (1, return Reset) ])
  in
  (seed, variants, prob, found, ops)

let print_pool_case (seed, variants, prob, found, ops) =
  Printf.sprintf "seed=%d variants=%d prob=%d found=[%s] ops=[%s]" seed
    variants prob
    (String.concat ";" (List.map string_of_int found))
    (String.concat ";"
       (List.map
          (function
            | Req (b, c) -> Printf.sprintf "R%d/%d" b c
            | Jop (b, c) -> Printf.sprintf "J%d/%d" b c
            | Reset -> "reset")
          ops))

let prop_pool_matches_model =
  QCheck.Test.make ~name:"pool = list-based reference model" ~count:300
    (QCheck.make ~print:print_pool_case gen_pool_case)
    (fun (seed, variants, prob, found, ops) ->
       (* found gadgets sit at distinct addresses below the pool, as the
          finder's one-per-offset scan guarantees *)
       let found =
         List.mapi
           (fun i b ->
              { Gadget.addr = Int64.of_int (0x1000 + (16 * i));
                body = model_bodies.(b); ending = Gadget.E_ret })
           found
       in
       let next_addr = 0x5000L in
       let pool =
         Pool.create ~variants ~dead_prefix_prob:prob
           ~rng:(Util.Rng.create seed) ~next_addr found
       in
       let model =
         Pool_model.create ~variants ~dead_prefix_prob:prob
           ~rng:(Util.Rng.create seed) ~next_addr found
       in
       let step op =
         (match op with
          | Req (b, c) ->
            let clobberable = clobber_set c in
            Int64.equal
              (Pool.request ~clobberable pool model_bodies.(b))
              (Pool_model.request ~clobberable model model_bodies.(b))
          | Jop (b, c) ->
            let clobberable = clobber_set c in
            Int64.equal
              (Pool.request_jop ~clobberable pool model_bodies.(b))
              (Pool_model.request_jop ~clobberable model model_bodies.(b))
          | Reset ->
            Pool.reset_stats pool;
            Pool_model.reset_stats model;
            true)
         && Pool.stats pool = Pool_model.stats model
       in
       (* the same gadgets with the same provenance; only the order of
          the found ones differs (the model's is its table's) *)
       let pool_gadgets () =
         List.map
           (fun (e : Pool.entry) -> (e.Pool.gadget, e.Pool.prefix, e.Pool.is_found))
           (Pool.all_gadgets pool)
       in
       let model_gadgets () =
         List.map
           (fun (e : Pool_model.entry) -> Pool_model.(e.gadget, e.prefix, e.is_found))
           (Pool_model.all_gadgets model)
       in
       List.for_all step ops
       && Bytes.equal (Pool.emitted_bytes pool) (Pool_model.emitted_bytes model)
       && List.sort compare (pool_gadgets ())
          = List.sort compare (model_gadgets ()))

(* Allocation fence: once a body has its variants, serving it from the
   pool allocates nothing, with or without a clobberable set, and neither
   does a draw from the generator.  The [Some] that passing an optional
   argument builds belongs to the call site, so the fenced loop passes one
   built outside it. *)
let test_pool_alloc_fence () =
  let plain = [ Pop (Reg RCX) ] and prefixed = [ Pop (Reg RAX) ] in
  let clobberable = Sys.opaque_identity [ R12; R13 ] in
  let some_clobberable = Some clobberable in
  let pool =
    Pool.create ~variants:3 ~dead_prefix_prob:100 ~rng:(Util.Rng.create 5)
      ~next_addr:0x5000L []
  in
  (* warm up: the plain body gets prefix-free variants, the other one
     variants whose prefixes only [clobberable] covers *)
  for _ = 1 to 200 do
    ignore (Pool.request pool plain);
    ignore (Pool.request ~clobberable pool prefixed)
  done;
  let fence name f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do f () done;
    Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0
      (Gc.minor_words () -. w0)
  in
  let _, before = Pool.stats pool in
  fence "cached request" (fun () -> ignore (Pool.request pool plain));
  fence "cached request, ~clobberable" (fun () ->
      ignore (Pool.request ?clobberable:some_clobberable pool prefixed));
  let _, after = Pool.stats pool in
  Alcotest.(check int) "nothing synthesized while fenced" before after;
  let rng = Util.Rng.create 9 in
  fence "Rng.int" (fun () ->
      ignore (Sys.opaque_identity (Util.Rng.int rng 1000)))

(* --- chain labels ------------------------------------------------------------- *)

let prop_block_label =
  QCheck.Test.make ~name:"block_label = sprintf \"bb_%Lx\"" ~count:500
    QCheck.(oneof [ int64; map Int64.of_int small_nat ])
    (fun a ->
       let a = Int64.logand a Int64.max_int in
       Ropc.Builder.block_label a = Printf.sprintf "bb_%Lx" a)

let test_block_label_edges () =
  List.iter
    (fun (a, want) ->
       Alcotest.(check string) want want (Ropc.Builder.block_label a))
    [ (0L, "bb_0"); (0x401a2fL, "bb_401a2f");
      (Int64.max_int, "bb_7fffffffffffffff") ]

let prop_fresh_label =
  QCheck.Test.make ~name:"fresh = sprintf \"%s$%s%d\"" ~count:200
    QCheck.(triple printable_string printable_string (int_bound 40))
    (fun (fname, prefix, k) ->
       let pool =
         Pool.create ~rng:(Util.Rng.create 1) ~next_addr:0x5000L []
       in
       let b =
         Ropc.Builder.create ~pool ~config:Ropc.Config.default
           ~rng:(Util.Rng.create 1) ~fname ~ss_addr:0L ~spill_base:0L
           ~flags_spill:0L ~funcret_gadget:0L ~p1_array:0L ~p1_class_a:[||]
       in
       List.for_all
         (fun n ->
            Ropc.Builder.fresh b prefix = Printf.sprintf "%s$%s%d" fname prefix n)
         (List.init (k + 1) Fun.id))

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
         Alcotest.test_case "stream pins" `Quick test_rng_stream_pins;
         QCheck_alcotest.to_alcotest prop_rng_range;
         QCheck_alcotest.to_alcotest prop_rng_shuffle_permutes ]);
      ("gadget",
       [ Alcotest.test_case "finder finds planted" `Quick test_finder_finds_planted;
         Alcotest.test_case "finder unaligned" `Quick test_finder_unaligned;
         Alcotest.test_case "pool diversifies" `Quick test_pool_diversifies;
         Alcotest.test_case "pool uses found" `Quick test_pool_prefers_found;
         QCheck_alcotest.to_alcotest prop_pool_matches_model;
         Alcotest.test_case "pool allocation fence" `Quick test_pool_alloc_fence ]);
      ("labels",
       [ QCheck_alcotest.to_alcotest prop_block_label;
         Alcotest.test_case "block_label edges" `Quick test_block_label_edges;
         QCheck_alcotest.to_alcotest prop_fresh_label ]);
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

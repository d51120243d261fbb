(* Bitvector expressions over the program input.

   All expressions denote 64-bit values; narrowing is explicit via Low.
   Branch conditions are expressions valued 0/1.  Symbolic memory reads are
   first-class ([Load]), closing over a functional memory snapshot: the
   evaluation-based solver (see Solver) only ever needs to *evaluate*
   expressions under a candidate input, so even theory-of-arrays reasoning
   reduces to evaluation (§VII-C3's per-page memory model). *)

open X86.Isa

type binop =
  | Add | Sub | Mul | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor
  | Shl | Shr | Sar
  | Eq | Ult | Slt | Ule | Sle
  | Mulhi_u | Mulhi_s

type unop =
  | Not
  | Neg
  | Low of width * bool      (* truncate to width then zero/sign extend *)
  | Bool_not                 (* logical: 0 -> 1, nonzero -> 0 *)

(* Every interior node carries a [stamp]: an identity drawn from a counter
   when the node is allocated, used only as its hash in node-identity
   tables ([Phys]).  Stamps never decide equality (that stays [==] for
   interior nodes) or a fold, so nothing observable depends on them; see
   DESIGN.md, "Expr node identity". *)
type stamp = int

type t =
  | Const of int64
  | Input of int                    (* i-th input byte, 0..255 *)
  | Bin of binop * t * t * stamp
  | Un of unop * t * stamp
  | Ite of t * t * t * stamp        (* cond<>0 ? then : else *)
  | Load of mem * t * int * stamp   (* snapshot, address, size in bytes *)

(* Functional memory snapshot: a write log over a concrete base.  Kept
   abstract enough for evaluation; writes store (address, value, size). *)
and mem = {
  base : Machine.Memory.t;
  writes : (t * t * int) list;      (* newest first *)
}

let zero = Const 0L
let one = Const 1L

(* --- constructors --------------------------------------------------------- *)

module S = Machine.Semantics

(* Stamps are unique within one process's allocations, but nothing relies
   on it: a forked or unmarshalled copy of a node shares its stamp with the
   original, which only makes two keys share a hash bucket. *)
let last_stamp = ref 0

let fresh () =
  incr last_stamp;
  !last_stamp

(* Non-folding constructors: a fresh node exactly as spelled.  Tests use
   them to build raw, unfolded expressions; the engine goes through the
   folding constructors below. *)
module Raw = struct
  let bin op a b = Bin (op, a, b, fresh ())
  let un op a = Un (op, a, fresh ())
  let ite c t e = Ite (c, t, e, fresh ())
end

let load m addr size = Load (m, addr, size, fresh ())

(* --- local constant folding ------------------------------------------------- *)

let is_const = function Const _ -> true | Input _ | Bin _ | Un _ | Ite _ | Load _ -> false

let eval_bin op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Udiv -> if b = 0L then 0L else Int64.unsigned_div a b
  | Urem -> if b = 0L then a else Int64.unsigned_rem a b
  | Sdiv -> if b = 0L || (a = Int64.min_int && b = -1L) then 0L else Int64.div a b
  | Srem -> if b = 0L || (a = Int64.min_int && b = -1L) then 0L else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | Shr -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | Sar -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | Eq -> if a = b then 1L else 0L
  | Ult -> if Int64.unsigned_compare a b < 0 then 1L else 0L
  | Slt -> if Int64.compare a b < 0 then 1L else 0L
  | Ule -> if Int64.unsigned_compare a b <= 0 then 1L else 0L
  | Sle -> if Int64.compare a b <= 0 then 1L else 0L
  | Mulhi_u -> S.mulhi_u a b
  | Mulhi_s -> S.mulhi_s a b

let eval_un op a =
  match op with
  | Not -> Int64.lognot a
  | Neg -> Int64.neg a
  | Low (w, signed) ->
    let v = S.truncate w a in
    if signed then S.sign_extend w v else v
  | Bool_not -> if a = 0L then 1L else 0L

let rec bin op a b =
  match a, b, op with
  | Const x, Const y, _ -> Const (eval_bin op x y)
  | x, y, (And | Or) when x == y -> x
  | e, Const 0L, (Add | Sub | Or | Xor | Shl | Shr | Sar) -> e
  | Const 0L, e, (Add | Or | Xor) -> e
  | _, Const 0L, (Mul | And) -> Const 0L
  | Const 0L, _, (Mul | And) -> Const 0L
  | e, Const 1L, Mul -> e
  | Const 1L, e, Mul -> e
  | Bin (Add, x, Const c1, _), Const c2, Add ->
    bin Add x (Const (Int64.add c1 c2))
  | Bin (And, x, Const c1, _), Const c2, And ->
    bin And x (Const (Int64.logand c1 c2))
  | _, _, _ -> Raw.bin op a b

(* comparison results are 0/1: narrowing is the identity on them *)
let rec is_bool = function
  | Bin ((Eq | Ult | Slt | Ule | Sle), _, _, _) | Un (Bool_not, _, _) -> true
  | Const (0L | 1L) -> true
  | Bin ((And | Or | Xor), a, b, _) -> is_bool a && is_bool b
  | Ite (_, a, b, _) -> is_bool a && is_bool b
  | Const _ | Input _ | Bin _ | Un _ | Load _ -> false

let rec un op a =
  match a, op with
  | Const x, _ -> Const (eval_un op x)
  | Un (Low (w1, false), _, _), Low (w2, false)
    when width_bytes w1 <= width_bytes w2 -> a
  (* byte-merge writes followed by a byte read: the old high bits vanish *)
  | Bin (Or, Bin (And, _, Const m, _), e, _), Low (W8, false)
    when Int64.logand m 0xFFL = 0L -> un (Low (W8, false)) e
  | Bin (Or, e, Bin (And, _, Const m, _), _), Low (W8, false)
    when Int64.logand m 0xFFL = 0L -> un (Low (W8, false)) e
  | Bin (And, e, Const 0xFFL, _), Low (W8, false) -> un (Low (W8, false)) e
  | e, Low (_, false) when is_bool e -> e
  | _, _ -> Raw.un op a

let ite c t e =
  match c with
  | Const 0L -> e
  | Const _ -> t
  | Input _ | Bin _ | Un _ | Ite _ | Load _ -> if t == e then t else Raw.ite c t e

(* --- evaluation ------------------------------------------------------------ *)

(* Evaluate under [input : int -> int] (byte values). *)
let rec eval ~input e =
  match e with
  | Const v -> v
  | Input i -> Int64.of_int (input i land 0xff)
  | Bin (op, a, b, _) -> eval_bin op (eval ~input a) (eval ~input b)
  | Un (op, a, _) -> eval_un op (eval ~input a)
  | Ite (c, t, f, _) -> if eval ~input c <> 0L then eval ~input t else eval ~input f
  | Load (m, addr, size, _) ->
    let a = eval ~input addr in
    load_mem ~input m a size

and load_mem ~input m addr size =
  (* byte-wise: walk the write log newest-first *)
  let byte i =
    let ba = Int64.add addr (Int64.of_int i) in
    let rec walk = function
      | [] ->
        (match Machine.Memory.read_u8_opt m.base ba with
         | Some v -> Int64.of_int v
         | None -> 0L)
      | (waddr, wval, wsize) :: rest ->
        let wa = eval ~input waddr in
        let off = Int64.sub ba wa in
        if Int64.compare off 0L >= 0 && Int64.compare off (Int64.of_int wsize) < 0
        then
          Int64.logand
            (Int64.shift_right_logical (eval ~input wval)
               (8 * Int64.to_int off))
            0xFFL
        else walk rest
    in
    walk m.writes
  in
  let r = ref 0L in
  for i = size - 1 downto 0 do
    r := Int64.logor (Int64.shift_left !r 8) (byte i)
  done;
  !r

(* Node-identity keys.  An interior node is its own key and hashes to its
   stamp; structural [Hashtbl.hash] looks at a bounded prefix of the tree,
   and the long chains DSE builds differ only deep down, so it put most of
   a query's nodes in a few buckets.  A leaf is keyed by its payload: DSE
   allocates leaves at run time, so keyed physically every [Const 0xFF]
   it ever built would sit in one bucket chain, and no memo pass gives a
   leaf a meaning beyond its value. *)
module Phys = struct
  type nonrec t = t
  let equal a b =
    a == b
    || (match a, b with
        | Const x, Const y -> Int64.equal x y
        | Input i, Input j -> i = j
        | (Const _ | Input _ | Bin _ | Un _ | Ite _ | Load _), _ -> false)
  let hash = function
    | Bin (_, _, _, s) | Un (_, _, s) | Ite (_, _, _, s) | Load (_, _, _, s) -> s
    | (Const _ | Input _) as e -> Hashtbl.hash e
end

module Phys_tbl = Hashtbl.Make (Phys)

(* The byte walk a [Load] denotes, for the memoized and compiled
   evaluators: each byte is the newest logged write covering it, shifted
   into place, else the base image's (0 where unmapped).  [value] gives a
   log entry's address or value. *)
let load_bytes value base log addr size =
  let byte i =
    let ba = Int64.add addr (Int64.of_int i) in
    let rec walk = function
      | [] ->
        (match Machine.Memory.read_u8_opt base ba with
         | Some v -> Int64.of_int v
         | None -> 0L)
      | (wa, wv, ws) :: rest ->
        let off = Int64.sub ba (value wa) in
        if Int64.compare off 0L >= 0 && Int64.compare off (Int64.of_int ws) < 0
        then
          Int64.logand
            (Int64.shift_right_logical (value wv) (8 * Int64.to_int off))
            0xFFL
        else walk rest
    in
    walk log
  in
  let r = ref 0L in
  for i = size - 1 downto 0 do
    r := Int64.logor (Int64.shift_left !r 8) (byte i)
  done;
  !r

(* Memoized evaluator: expression graphs built by loops share subterms
   heavily (DAGs); evaluation without memoization is exponential.  The cache
   is keyed on node identity ([Phys]) and valid for one input model. *)
let evaluator ~input =
  let cache = Phys_tbl.create 256 in
  let rec ev e =
    match e with
    | Const v -> v
    | Input i -> Int64.of_int (input i land 0xff)
    | Bin _ | Un _ | Ite _ | Load _ ->
      (match Phys_tbl.find_opt cache e with
       | Some v -> v
       | None ->
         let v =
           match e with
           | Const _ | Input _ -> assert false
           | Bin (op, a, b, _) -> eval_bin op (ev a) (ev b)
           | Un (op, a, _) -> eval_un op (ev a)
           | Ite (c, t, f, _) -> if ev c <> 0L then ev t else ev f
           | Load (m, addr, size, _) ->
             load_bytes ev m.base m.writes (ev addr) size
         in
         Phys_tbl.replace cache e v;
         v)
  in
  ev

(* --- compiled form ----------------------------------------------------------- *)

(* For solver workloads the same expression DAG is evaluated under thousands
   of candidate models.  [compile] flattens the DAG once into an array
   program in topological order, one 8-byte slot per interior node and per
   distinct leaf value (one [Phys] key each); [run]
   then evaluates a model in a single sweep.  Constant slots are written
   once, at [compile], and [run] visits only the other nodes ([live]).  Each
   common arm stores its own result straight into [slots]: an [int64 array]
   store, or one store after the arms join, would box every result.  The
   rare kinds (division, [Mulhi_*], [Low], [Load]) still go through
   [eval_bin]/[eval_un] and may allocate. *)

type cnode =
  | C_const of int64
  | C_input of int
  | C_bin of binop * int * int
  | C_un of unop * int
  | C_ite of int * int * int
  | C_load of Machine.Memory.t * int * int * (int * int * int) list
      (* base, addr idx, size, write log as (addr idx, value idx, size) *)

type compiled = {
  nodes : cnode array;            (* one per [Phys] key *)
  roots : int array;              (* one per source expression *)
  live : int array;               (* ids of the non-constant nodes, in order *)
  slots : Bytes.t;                (* node i's value at byte 8i, reused across runs *)
}

let get_slot s i = Bytes.get_int64_ne s (i lsl 3)
let set_slot s i v = Bytes.set_int64_ne s (i lsl 3) v

let compile (exprs : t list) : compiled =
  let tbl = Phys_tbl.create 1024 in
  let nodes = ref [] in
  let count = ref 0 in
  let add n =
    nodes := n :: !nodes;
    let i = !count in
    incr count;
    i
  in
  let rec go e =
    match Phys_tbl.find_opt tbl e with
    | Some i -> i
    | None ->
      let i =
        match e with
        | Const v -> add (C_const v)
        | Input i -> add (C_input i)
        | Bin (op, a, b, _) ->
          let ia = go a in
          let ib = go b in
          add (C_bin (op, ia, ib))
        | Un (op, a, _) ->
          let ia = go a in
          add (C_un (op, ia))
        | Ite (c, t, f, _) ->
          let ic = go c in
          let it = go t in
          let if_ = go f in
          add (C_ite (ic, it, if_))
        | Load (m, addr, size, _) ->
          let ia = go addr in
          let log =
            List.map
              (fun (wa, wv, ws) ->
                 let iwa = go wa in
                 let iwv = go wv in
                 (iwa, iwv, ws))
              m.writes
          in
          add (C_load (m.base, ia, size, log))
      in
      Phys_tbl.replace tbl e i;
      i
  in
  let roots = Array.of_list (List.map go exprs) in
  let nodes = Array.of_list (List.rev !nodes) in
  let slots = Bytes.make (8 * Array.length nodes) '\000' in
  let live = ref [] in
  for i = Array.length nodes - 1 downto 0 do
    match nodes.(i) with
    | C_const x -> set_slot slots i x
    | C_input _ | C_bin _ | C_un _ | C_ite _ | C_load _ -> live := i :: !live
  done;
  { nodes; roots; live = Array.of_list !live; slots }

(* Evaluate the live nodes [live.(lo) .. live.(hi - 1)] under [input]; read
   the results with [slot] and the helpers below (node ids via [c.roots]).
   Nodes are numbered children first, so the nodes a root depends on are
   the live ones numbered at most the root ([live_upto]): running a prefix
   of [live] evaluates every root inside it.  Comparisons are spelled with
   [<] on int64 operands, which compiles to a machine compare, where
   [Int64.compare] would box both sides. *)
let run_range (c : compiled) ~input lo hi =
  let s = c.slots and nodes = c.nodes and live = c.live in
  for k = lo to hi - 1 do
    let i = live.(k) in
    match nodes.(i) with
    | C_const _ -> ()                  (* never live *)
    | C_input b -> set_slot s i (Int64.of_int (input b land 0xff))
    | C_bin (op, a, b) ->
      let x = get_slot s a and y = get_slot s b in
      (match op with
       | Add -> set_slot s i (Int64.add x y)
       | Sub -> set_slot s i (Int64.sub x y)
       | Mul -> set_slot s i (Int64.mul x y)
       | And -> set_slot s i (Int64.logand x y)
       | Or -> set_slot s i (Int64.logor x y)
       | Xor -> set_slot s i (Int64.logxor x y)
       | Shl ->
         set_slot s i (Int64.shift_left x (Int64.to_int (Int64.logand y 63L)))
       | Shr ->
         set_slot s i
           (Int64.shift_right_logical x (Int64.to_int (Int64.logand y 63L)))
       | Sar ->
         set_slot s i (Int64.shift_right x (Int64.to_int (Int64.logand y 63L)))
       | Eq -> set_slot s i (if x = y then 1L else 0L)
       | Ult ->
         set_slot s i
           (if Int64.sub x Int64.min_int < Int64.sub y Int64.min_int then 1L
            else 0L)
       | Slt -> set_slot s i (if x < y then 1L else 0L)
       | Ule ->
         set_slot s i
           (if Int64.sub x Int64.min_int <= Int64.sub y Int64.min_int then 1L
            else 0L)
       | Sle -> set_slot s i (if x <= y then 1L else 0L)
       | Udiv | Urem | Sdiv | Srem | Mulhi_u | Mulhi_s ->
         set_slot s i (eval_bin op x y))
    | C_un (op, a) ->
      let x = get_slot s a in
      (match op with
       | Not -> set_slot s i (Int64.lognot x)
       | Neg -> set_slot s i (Int64.neg x)
       | Bool_not -> set_slot s i (if x = 0L then 1L else 0L)
       | Low _ -> set_slot s i (eval_un op x))
    | C_ite (cc, t, f) ->
      set_slot s i (if get_slot s cc <> 0L then get_slot s t else get_slot s f)
    | C_load (base, ia, size, log) ->
      set_slot s i (load_bytes (get_slot s) base log (get_slot s ia) size)
  done

(* Evaluate all roots under [input]. *)
let run c ~input = run_range c ~input 0 (Array.length c.live)

(* How many live nodes are numbered at most [i]: [run_range c ~input 0
   (live_upto c i)] evaluates node [i] and everything it depends on. *)
let live_upto c i =
  let live = c.live in
  let lo = ref 0 and hi = ref (Array.length live) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if live.(mid) <= i then lo := mid + 1 else hi := mid
  done;
  !lo

let slot c i = get_slot c.slots i

(* Readers that return [bool]/[int]: a caller in another module cannot
   inline [slot] under separate compilation, so an [int64] it returns is
   boxed. *)
let slot_true c i = get_slot c.slots i <> 0L

let slot_xor_popcount c i j =
  let v = ref (Int64.logxor (get_slot c.slots i) (get_slot c.slots j)) in
  let n = ref 0 in
  while !v <> 0L do
    v := Int64.logand !v (Int64.sub !v 1L);
    incr n
  done;
  !n

(* bit length of |a - b| (wrapping, so min_int counts 64) *)
let slot_log2_dist c i j =
  let d = Int64.sub (get_slot c.slots i) (get_slot c.slots j) in
  let d = ref (if d >= 0L then d else Int64.neg d) and n = ref 0 in
  while !d <> 0L do
    d := Int64.shift_right_logical !d 1;
    incr n
  done;
  !n

(* --- inspection ------------------------------------------------------------ *)

(* DAG-aware: visited set on node identity ([Phys]), or traversal is
   exponential.  The set is shared by all of [es], so a path's constraints,
   which share its prefix, are walked once between them.  Sorted. *)
let input_bytes es =
  let visited = Phys_tbl.create 64 in
  let bytes = ref [] in
  let rec go e =
    if not (Phys_tbl.mem visited e) then begin
      Phys_tbl.replace visited e ();
      match e with
      | Const _ -> ()
      | Input i -> bytes := i :: !bytes
      | Bin (_, a, b, _) -> go a; go b
      | Un (_, a, _) -> go a
      | Ite (c, t, f, _) -> go c; go t; go f
      | Load (m, a, _, _) ->
        go a;
        List.iter (fun (wa, wv, _) -> go wa; go wv) m.writes
    end
  in
  List.iter go es;
  List.sort_uniq compare !bytes

type inputs = No_input | Sole of int | Several

(* [sole_input ()] classifies expressions by the input bytes they mention:
   [Sole b] when [b] is the only one.  Memoized on node identity across
   all calls of one classifier, so classifying every constraint of a query
   is one walk of their shared DAG. *)
let sole_input () =
  let memo = Phys_tbl.create 64 in
  let join a b =
    match a, b with
    | No_input, x | x, No_input -> x
    | Sole i, Sole j when i = j -> a
    | (Sole _ | Several), (Sole _ | Several) -> Several
  in
  let rec go e =
    match Phys_tbl.find_opt memo e with
    | Some r -> r
    | None ->
      let r =
        match e with
        | Const _ -> No_input
        | Input i -> Sole i
        | Bin (_, a, b, _) -> join (go a) (go b)
        | Un (_, a, _) -> go a
        | Ite (c, t, f, _) -> join (go c) (join (go t) (go f))
        | Load (m, a, _, _) ->
          List.fold_left
            (fun acc (wa, wv, _) -> join acc (join (go wa) (go wv)))
            (go a) m.writes
      in
      Phys_tbl.replace memo e r;
      r
  in
  go

exception Found_input

let depends_on_input e =
  let visited = Phys_tbl.create 64 in
  let rec go e =
    if not (Phys_tbl.mem visited e) then begin
      Phys_tbl.replace visited e ();
      match e with
      | Const _ -> ()
      | Input _ -> raise Found_input
      | Bin (_, a, b, _) -> go a; go b
      | Un (_, a, _) -> go a
      | Ite (c, t, f, _) -> go c; go t; go f
      | Load (m, a, _, _) ->
        go a;
        List.iter (fun (wa, wv, _) -> go wa; go wv) m.writes
    end
  in
  match go e with () -> false | exception Found_input -> true

let rec size e =
  match e with
  | Const _ | Input _ -> 1
  | Bin (_, a, b, _) -> 1 + size a + size b
  | Un (_, a, _) -> 1 + size a
  | Ite (c, t, f, _) -> 1 + size c + size t + size f
  | Load (_, a, _, _) -> 1 + size a

let rec pp fmt e =
  match e with
  | Const v -> Format.fprintf fmt "0x%Lx" v
  | Input i -> Format.fprintf fmt "in[%d]" i
  | Bin (op, a, b, _) ->
    let s = match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*" | Udiv -> "/u" | Urem -> "%u"
      | Sdiv -> "/s" | Srem -> "%s" | And -> "&" | Or -> "|" | Xor -> "^"
      | Shl -> "<<" | Shr -> ">>u" | Sar -> ">>s" | Eq -> "==" | Ult -> "<u"
      | Slt -> "<s" | Ule -> "<=u" | Sle -> "<=s"
      | Mulhi_u -> "*hu" | Mulhi_s -> "*hs"
    in
    Format.fprintf fmt "(%a %s %a)" pp a s pp b
  | Un (Not, a, _) -> Format.fprintf fmt "~%a" pp a
  | Un (Neg, a, _) -> Format.fprintf fmt "-%a" pp a
  | Un (Low (w, s), a, _) ->
    Format.fprintf fmt "%s%d(%a)" (if s then "sext" else "zext") (width_bits w) pp a
  | Un (Bool_not, a, _) -> Format.fprintf fmt "!%a" pp a
  | Ite (c, t, f, _) -> Format.fprintf fmt "(%a ? %a : %a)" pp c pp t pp f
  | Load (_, a, n, _) -> Format.fprintf fmt "mem%d[%a]" n pp a

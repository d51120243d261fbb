(* Gadget pool: serves chain-crafting requests for gadget functionality.

   The rewriter controls the binary, so missing gadgets are synthesized as
   dead code appended to .text (§IV-A1).  For *diversity* (§I, §V-D) the pool
   keeps several variants of each requested sequence — extra synthetic copies
   at distinct addresses, optionally prefixed with dynamically-dead
   instructions over registers the requester declared clobberable — and picks
   one at random per use.  Found gadgets (from the finder) are preferred when
   their body matches a request exactly.

   Variants are shared across requests with the same body, but a variant
   carrying a dead prefix is only dead *for requesters whose clobberable set
   covers the prefix registers*; [request] filters candidates accordingly, so
   a prefix over a register that is live at some other use site is never
   served there.  The static verifier (lib/verify) re-checks this invariant
   against liveness after the fact. *)

open X86.Isa

(* Synthesized gadgets remember which registers their diversification prefix
   writes ([prefix] is empty for found gadgets and prefix-free variants) and
   their encoding, computed once ([code] is empty for found gadgets, which
   are never emitted). *)
type entry = {
  gadget : Gadget.t;
  prefix : reg list;
  is_found : bool;
  code : bytes;
  mutable used_in : int;                (* last stats epoch that used it *)
}

(* Every variant of one body: found gadgets (in the order [create] saw them,
   reversed) and synthesized ones (newest first).  A request's candidates
   are [found @ synth] filtered by usability, in that order. *)
type bucket = {
  mutable found : entry list;
  mutable synth : entry list;
}

type t = {
  rng : Util.Rng.t;
  buckets : (Gadget.key, bucket) Hashtbl.t;
  mutable next_addr : int64;            (* where the next synthetic gadget goes *)
  mutable emitted : entry list;         (* reversed *)
  mutable found_entries : entry list;   (* reversed; for [all_gadgets] *)
  variants : int;                       (* max variants kept per key *)
  dead_prefix_prob : int;               (* percent chance of a dead prefix *)
  (* usage statistics (Table III).  Entries have distinct addresses (the
     finder yields one gadget per offset, synthesis advances [next_addr]),
     so counting entries first used in the current epoch counts unique
     addresses. *)
  mutable uses : int;                   (* A: total gadget uses *)
  mutable unique : int;                 (* B: unique gadgets used *)
  mutable epoch : int;                  (* bumped by [reset_stats] *)
}

let bucket t key =
  match Hashtbl.find t.buckets key with
  | b -> b
  | exception Not_found ->
    let b = { found = []; synth = [] } in
    Hashtbl.add t.buckets key b;
    b

let create ?(variants = 3) ?(dead_prefix_prob = 40) ~rng ~next_addr found_list =
  let t =
    { rng; buckets = Hashtbl.create 256; next_addr; emitted = [];
      found_entries = []; variants; dead_prefix_prob;
      uses = 0; unique = 0; epoch = 0 }
  in
  List.iter
    (fun g ->
       let e =
         { gadget = g; prefix = []; is_found = true; code = Bytes.empty;
           used_in = -1 }
       in
       let b = bucket t (Gadget.key g) in
       b.found <- e :: b.found;
       t.found_entries <- e :: t.found_entries)
    found_list;
  t

(* Dynamically-dead prefix instructions: harmless writes to a clobberable
   register.  They concur to nothing, diversifying the byte pattern. *)
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

(* Synthesize a new variant of [body] and file it, newest first, in [b]. *)
let synthesize t b ~ending ~clobberable body =
  let prefix_ins, prefix = dead_prefix t ~clobberable in
  let g =
    { Gadget.addr = t.next_addr; body = prefix_ins @ body; ending }
  in
  let code = Gadget.encode g in
  t.next_addr <- Int64.add t.next_addr (Int64.of_int (Bytes.length code));
  let e = { gadget = g; prefix; is_found = false; code; used_in = -1 } in
  t.emitted <- e :: t.emitted;
  b.synth <- e :: b.synth;
  e

let record_use t e =
  t.uses <- t.uses + 1;
  if e.used_in <> t.epoch then begin
    e.used_in <- t.epoch;
    t.unique <- t.unique + 1
  end;
  e.gadget.Gadget.addr

(* A cached variant is only usable when every register its diversification
   prefix writes is clobberable at *this* use site. *)
let rec covered clobberable = function
  | [] -> true
  | r :: rs -> List.memq r clobberable && covered clobberable rs

let usable clobberable e = covered clobberable e.prefix

let rec count_usable clobberable n = function
  | [] -> n
  | e :: es ->
    count_usable clobberable (if usable clobberable e then n + 1 else n) es

(* The [k]-th usable entry of [es], counting from 0; the caller has
   counted that there are more than [k]. *)
let rec nth_usable clobberable k = function
  | [] -> invalid_arg "Pool.nth_usable"
  | e :: es ->
    if not (usable clobberable e) then nth_usable clobberable k es
    else if k = 0 then e
    else nth_usable clobberable (k - 1) es

(* Request a ret-ending gadget whose body is exactly [body].  [clobberable]
   lists registers that are dead at the use site, allowed to appear in
   dynamically-dead diversification prefixes.  A cached request does one
   table lookup and allocates nothing. *)
let request ?(clobberable = []) t (body : instr list) : int64 =
  let b = bucket t body in
  let n_found = count_usable clobberable 0 b.found in
  let n = count_usable clobberable n_found b.synth in
  let e =
    if n = 0 || n < t.variants && Util.Rng.int t.rng 100 < 30 then
      synthesize t b ~ending:Gadget.E_ret ~clobberable body
    else begin
      let k = Util.Rng.int t.rng n in
      if k < n_found then nth_usable clobberable k b.found
      else nth_usable clobberable (k - n_found) b.synth
    end
  in
  record_use t e

(* Serve the first usable synthesized variant of [b], else a new one. *)
let rec serve_jop t b ~clobberable body = function
  | e :: es ->
    if usable clobberable e then record_use t e
    else serve_jop t b ~clobberable body es
  | [] ->
    (* ending reg is informational; body already contains the jmp *)
    record_use t (synthesize t b ~ending:(Gadget.E_jop RAX) ~clobberable body)

(* Request a JOP gadget (ends with jmp reg, no ret).  Only synthesized
   variants serve, never found ones. *)
let request_jop ?(clobberable = []) t (body : instr list) : int64 =
  let b = bucket t body in
  serve_jop t b ~clobberable body b.synth

(* Bytes of all synthesized gadgets, in address order, for appending to
   .text.  The first gadget's address must equal the pool's [next_addr] at
   creation time. *)
let emitted_bytes t =
  let buf = Buffer.create 1024 in
  List.iter (fun e -> Buffer.add_bytes buf e.code) (List.rev t.emitted);
  Buffer.to_bytes buf

(* Every gadget the pool knows about — scanned and synthesized — with its
   prefix provenance, for the static verifier's address -> semantics map.
   Found gadgets come first, in scan order, then synthesized ones in address
   order. *)
let all_gadgets t : entry list =
  List.rev_append t.found_entries (List.rev t.emitted)

let stats t = (t.uses, t.unique)

let reset_stats t =
  t.uses <- 0;
  t.unique <- 0;
  t.epoch <- t.epoch + 1

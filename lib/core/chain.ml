(* Chain representation and materialization (§IV-B3).

   During crafting a chain is a sequence of symbolic 8-byte slots (gadget
   addresses, immediate operands, RSP displacements towards labelled blocks)
   interleaved with zero-width label/anchor markers and, under gadget
   confusion, skew directives that shift subsequent slots by a non-multiple
   of 8.  Materialization fixes the layout and turns symbolic displacements
   into concrete byte offsets, like an assembler resolving labels. *)

type slot =
  | S_gadget of int64
  | S_imm of int64
  | S_disp of { target : string; anchor : string; bias : int64 }
      (* materializes as off(target) - off(anchor) - bias; [bias] is the
         array-encoded part [a] under P1, 0 otherwise *)
  | S_opaque of { oq_value : int64; oq_cls : int; oq_residue : int64;
                  oq_mult : int64 }
      (* opaque-constant slot (ROPfuscator layer): materializes
         value - mult*(residue+1), never the value itself.  The chain
         recovers [oq_value] at runtime by adding mult*(a+1) back, where
         a = P1[f(x)*stride + cls] mod m is extracted from the opaque
         array exactly like a P1-encoded branch displacement.  The full
         encoding is recorded so the verifier can recompute the stored
         bytes from the array's ground truth. *)
  | S_opaque_dispatch of { od_jop : int64; od_target : int64 }
      (* opaque gadget dispatch: the slot holds the address of a
         jmp-reg trampoline; the register it jumps through carries
         [od_target], recovered opaquely by the preceding slots.  The
         target's own ret then continues the chain at the next slot. *)
  | S_label of string          (* marks a chain position (block entry) *)
  | S_anchor of string         (* marks the RSP base of a displacement *)
  | S_skew of int              (* skip this many junk bytes (eta, §V-D) *)

(* The 8 bytes an opaque-constant slot actually stores.  Shared with
   lib/verify so the checker and the materializer can never drift. *)
let opaque_stored ~value ~residue ~mult =
  Int64.sub value (Int64.mul mult (Int64.add residue 1L))

(* The store is append-only and compact: a slot whose 8 bytes are known
   when it is pushed (gadget, immediate, opaque constant, the jop word of an
   opaque dispatch) is written straight into [buf] at its final offset, and
   every slot costs one tag byte.  Only the slots that need more than their
   bytes -- displacements (resolved at materialization), skews (junk drawn
   at materialization), labels/anchors, and the opaque slots the audit must
   see whole -- are kept as values, with their byte offsets.  Labels and
   anchors enter the offset table as they are pushed.  Crafting a chain
   thus allocates no per-slot heap object for the common slots. *)
type t = {
  mutable buf : bytes;         (* chain bytes; disp and skew slots are holes *)
  mutable off : int;           (* bytes laid out so far *)
  mutable tags : bytes;        (* one tag per slot, in push order *)
  mutable n : int;             (* slots pushed *)
  mutable side : slot array;   (* the value-kept slots, in push order *)
  mutable side_off : int array;   (* their byte offsets *)
  mutable nside : int;
  labels : (string, int) Hashtbl.t;   (* label/anchor -> byte offset *)
  mutable dup : string option; (* first label pushed twice *)
}

let tag_gadget = 'g'
let tag_imm = 'i'
let tag_side = 's'

(* Array fillers: static constants, so creating a large slot array never
   makes [caml_make_vect] force a minor collection (it does for an array
   too large for the minor heap whose initial value is young). *)
let filler = S_skew 0
let layout_filler = (0, S_skew 0)

let create () =
  { buf = Bytes.create 512; off = 0; tags = Bytes.create 64; n = 0;
    side = Array.make 16 filler; side_off = Array.make 16 0; nside = 0;
    labels = Hashtbl.create 32; dup = None }

let reserve t size =
  let len = Bytes.length t.buf in
  if t.off + size > len then begin
    let nb = Bytes.create (max (2 * len) (t.off + size)) in
    Bytes.blit t.buf 0 nb 0 t.off;
    t.buf <- nb
  end

let push_tag t tag =
  if t.n = Bytes.length t.tags then begin
    let nt = Bytes.create (2 * t.n) in
    Bytes.blit t.tags 0 nt 0 t.n;
    t.tags <- nt
  end;
  Bytes.unsafe_set t.tags t.n tag;
  t.n <- t.n + 1

let push_word t tag v =
  reserve t 8;
  Bytes.set_int64_le t.buf t.off v;
  t.off <- t.off + 8;
  push_tag t tag

let slot_size = function
  | S_gadget _ | S_imm _ | S_disp _ | S_opaque _ | S_opaque_dispatch _ -> 8
  | S_label _ | S_anchor _ -> 0
  | S_skew eta -> eta

(* Keep [s] as a value at the current offset; [word], when given, is its
   8 bytes if they are already known. *)
let push_side ?word t s =
  if t.nside = Array.length t.side then begin
    let cap = 2 * t.nside in
    let ns = Array.make cap filler and no = Array.make cap 0 in
    Array.blit t.side 0 ns 0 t.nside;
    Array.blit t.side_off 0 no 0 t.nside;
    t.side <- ns;
    t.side_off <- no
  end;
  t.side.(t.nside) <- s;
  t.side_off.(t.nside) <- t.off;
  t.nside <- t.nside + 1;
  let size = slot_size s in
  reserve t size;
  (match word with Some v -> Bytes.set_int64_le t.buf t.off v | None -> ());
  t.off <- t.off + size;
  push_tag t tag_side

(* Number of slots pushed so far; the builder brackets each roplet by the
   [length] at its start and end so the verifier can attribute slots to
   program points without re-walking the chain. *)
let length t = t.n

let gadget t addr = push_word t tag_gadget addr
let imm t v = push_word t tag_imm v
let disp t ~target ~anchor ~bias = push_side t (S_disp { target; anchor; bias })
let opaque t ~value ~cls ~residue ~mult =
  push_side t
    ~word:(opaque_stored ~value ~residue ~mult)
    (S_opaque { oq_value = value; oq_cls = cls; oq_residue = residue;
                oq_mult = mult })
let opaque_dispatch t ~jop ~target =
  push_side t ~word:jop (S_opaque_dispatch { od_jop = jop; od_target = target })

let mark t name s =
  if Hashtbl.mem t.labels name then begin
    if t.dup = None then t.dup <- Some name
  end
  else Hashtbl.add t.labels name t.off;
  push_side t s

let label t name = mark t name (S_label name)
let anchor t name = mark t name (S_anchor name)
let skew t eta = push_side t (S_skew eta)

type materialized = {
  bytes : bytes;
  (* offset of each label/anchor within the chain; shared with the store,
     so nothing may be pushed onto a chain once it is materialized *)
  offsets : (string, int) Hashtbl.t;
  base : int64;                (* absolute address the chain is placed at *)
  layout : (int * slot) array Lazy.t;
  (* byte offset of every slot in push order, including the zero-width
     label/anchor markers; the static verifier replays the chain from this.
     Rebuilt from the store only when forced: the rewrite itself never
     needs it. *)
}

exception Materialize_error of string

(* Rebuild the per-slot layout.  The array is created with the static
   [layout_filler] pair and then written, never built by [Array.of_list] or
   [Array.init] over young values (see [filler]). *)
let layout_of ~tags ~n ~side ~side_off bytes =
  let a = Array.make n layout_filler in
  let off = ref 0 and k = ref 0 in
  for i = 0 to n - 1 do
    let tag = Bytes.unsafe_get tags i in
    if tag = tag_side then begin
      let s = side.(!k) and o = side_off.(!k) in
      a.(i) <- (o, s);
      off := o + slot_size s;
      incr k
    end
    else begin
      let v = Bytes.get_int64_le bytes !off in
      a.(i) <- (!off, if tag = tag_gadget then S_gadget v else S_imm v);
      off := !off + 8
    end
  done;
  a

(* Lay out and emit the chain for placement at absolute address [base].
   [junk] supplies filler bytes for skew gaps (deceptive: they should look
   like gadget addresses).  The default filler is a fixed-seed Util.Rng
   stream rather than the ambient [Random] state: every materialization must
   be replayable from explicit seeds alone (the rewriter always passes its
   own seeded stream; the default only serves direct callers in tests).
   Junk is drawn skew by skew in push order. *)
let default_junk () =
  let rng = Util.Rng.create 0x6a756e6b (* "junk" *) in
  fun _ -> Util.Rng.int rng 256

let materialize ?junk ~base t =
  (match t.dup with
   | Some name -> raise (Materialize_error ("duplicate label " ^ name))
   | None -> ());
  let junk = match junk with Some j -> j | None -> default_junk () in
  let buf = Bytes.sub t.buf 0 t.off in
  let lookup name =
    match Hashtbl.find_opt t.labels name with
    | Some o -> o
    | None -> raise (Materialize_error ("undefined chain label " ^ name))
  in
  for k = 0 to t.nside - 1 do
    let off = t.side_off.(k) in
    match t.side.(k) with
    | S_disp { target; anchor; bias } ->
      Bytes.set_int64_le buf off
        (Int64.sub (Int64.of_int (lookup target - lookup anchor)) bias)
    | S_skew eta ->
      for i = 0 to eta - 1 do
        Bytes.set buf (off + i) (Char.chr (junk i))
      done
    | S_gadget _ | S_imm _ | S_opaque _ | S_opaque_dispatch _
    | S_label _ | S_anchor _ -> ()
  done;
  let tags = t.tags and n = t.n and side = t.side and side_off = t.side_off in
  { bytes = buf; offsets = t.labels; base;
    layout = lazy (layout_of ~tags ~n ~side ~side_off buf) }

(* Absolute address of a label in a materialized chain. *)
let label_addr m name =
  match Hashtbl.find_opt m.offsets name with
  | Some off -> Int64.add m.base (Int64.of_int off)
  | None -> raise (Materialize_error ("undefined chain label " ^ name))

(* Chain-relative displacement between two labels (for jump-table patches). *)
let label_delta m ~target ~anchor =
  match Hashtbl.find_opt m.offsets target, Hashtbl.find_opt m.offsets anchor with
  | Some t, Some a -> Int64.of_int (t - a)
  | None, _ -> raise (Materialize_error ("undefined chain label " ^ target))
  | _, None -> raise (Materialize_error ("undefined chain label " ^ anchor))

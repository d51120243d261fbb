(* Sparse paged byte-addressable memory.

   Pages are allocated on first write, or on the first touch of a page that
   [map] covers: [map] records the range only, so a 1 MiB stack costs the
   pages a run touches, not 256 zero-filled ones up front.  Each such page
   is a private zero page, never one shared zero page: the cache entries
   below are written through, so a page first reached by a read may be
   written through the same entry.  Reading a byte no [map]ped range covers
   and no write created raises {!Fault}: wild chain executions (e.g. the
   intentional RSP corruption of predicate P2 under blind branch flipping)
   must terminate the enclosing exploration rather than silently read
   zeros.

   Two execution-speed mechanisms live here because every consumer of the
   machine benefits from them:

   - Accesses that stay inside one page resolve the page once — through a
     one-entry last-page cache, then a specialized int-keyed table — and use
     the [Bytes] little-endian accessors instead of a byte-at-a-time loop.
     Page-straddling and odd-sized accesses fall back to the byte loop.
     Exec's push/pop/ret closures keep a second entry, for the stack page
     alone, so a gadget body's data access does not evict the chain's page.
   - [code_version] counts writes into pages the executor has decoded
     instructions from ([note_code]).  {!Exec} snapshots the counter when it
     fills its decode/translation caches and flushes them when it moves, so
     self-modifying or patched code (rewriter immediates, P1 residues,
     difftest wild stores) executes the new bytes instead of stale decodes.
     Code marks are sticky for the lifetime of the memory: clearing them on
     flush would silently break any second executor sharing this memory. *)

exception Fault of int64 * string

let page_bits = 12
let page_size = 1 lsl page_bits

type page = {
  data : bytes;
  mutable is_code : bool;   (* instructions were decoded from this page *)
}

module Itbl = Util.Itbl

type t = {
  pages : page Itbl.t;          (* keyed by page index *)
  mutable mapped : (int * int) list;
    (* page-index spans [first, last] of the [map]ped ranges; their pages
       join [pages] on first touch *)
  mutable code_version : int;   (* bumped on every write into a code page *)
  mutable last_idx : int;       (* one-entry page cache; min_int = empty *)
  mutable last_page : page;
  mutable sp_idx : int;         (* stack entry, filled only by [stack_*_cold] *)
  mutable sp_page : page;
}

(* Both cache entries hold [dummy_page] only under the key [min_int], which
   no page index equals (indices are the top 52 bits of an address), so a
   page reached through a key hit always has [page_size] data bytes: every
   other page is made by [new_page], [find_mapped] or [copy]. *)
let dummy_page = { data = Bytes.create 0; is_code = false }

let create () =
  { pages = Itbl.create 64; mapped = [];
    code_version = 0; last_idx = min_int; last_page = dummy_page;
    sp_idx = min_int; sp_page = dummy_page }

let copy t =
  let pages = Itbl.create (Itbl.length t.pages) in
  Itbl.iter
    (fun k p -> Itbl.replace pages k { data = Bytes.copy p.data; is_code = p.is_code })
    t.pages;
  { pages; mapped = t.mapped; code_version = t.code_version;
    last_idx = min_int; last_page = dummy_page;
    sp_idx = min_int; sp_page = dummy_page }

(* The page index is the address's top 52 bits: exact as an OCaml int even
   for addresses with the sign bit set, and injective over all of them. *)
let page_idx addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let offset_of addr = Int64.to_int (Int64.logand addr (Int64.of_int (page_size - 1)))

let code_version t = t.code_version

(* Pages ever touched (loaded, written, or read inside a [map]ped range) —
   the working-set figure Exec.publish_metrics exports. *)
let page_count t = Itbl.length t.pages

let zero_page () = { data = Bytes.make page_size '\000'; is_code = false }

let rec covered idx = function
  | [] -> false
  | (first, last) :: rest -> (first <= idx && idx <= last) || covered idx rest

(* The page at [idx] for a read: the stored page, else a fresh zero page
   when a [map]ped range covers [idx] (stored, so later probes and writes
   find the same page), else [Not_found].  Every read miss path comes
   through here. *)
let find_mapped t idx =
  match Itbl.find t.pages idx with
  | p -> p
  | exception Not_found ->
    if covered idx t.mapped then begin
      let p = zero_page () in
      Itbl.replace t.pages idx p;
      p
    end
    else raise Not_found

(* Resolve the page of [addr] for reading; fills the one-entry cache.
   Kept out of the fast paths so they inline to a compare plus field load. *)
let read_page_slow t idx addr =
  match find_mapped t idx with
  | p -> t.last_idx <- idx; t.last_page <- p; p
  | exception Not_found -> raise (Fault (addr, "read of unmapped address"))

let read_page t addr =
  let idx = page_idx addr in
  if t.last_idx = idx then t.last_page else read_page_slow t idx addr

(* The page at [idx], allocated zero-filled when unmapped (writes map
   lazily).  Fills no cache entry.  This probe and [find_page]'s use
   [Itbl.find], not [find_opt], so the fast engine's cold paths allocate
   nothing: a chain that walks its stack across pages stays at 0 minor
   words. *)
let new_page t idx =
  match Itbl.find t.pages idx with
  | p -> p
  | exception Not_found ->
    let p = zero_page () in
    Itbl.replace t.pages idx p;
    p

(* Same, filling the one-entry cache. *)
let write_page_slow t idx =
  let p = new_page t idx in
  t.last_idx <- idx; t.last_page <- p;
  p

let write_page t addr =
  let idx = page_idx addr in
  if t.last_idx = idx then t.last_page else write_page_slow t idx

let get_page_opt t addr =
  let idx = page_idx addr in
  if t.last_idx = idx then Some t.last_page
  else match find_mapped t idx with p -> Some p | exception Not_found -> None

(* Map [len] bytes starting at [addr] as zero-filled readable memory, at
   page granularity.  Only the span is recorded; a span that touches or
   overlaps the last one recorded extends it, so a bump allocator that
   maps block after block keeps one span. *)
let map t addr len =
  if len > 0 then begin
    let first = page_idx addr in
    let last = page_idx (Int64.add addr (Int64.of_int (len - 1))) in
    t.mapped <-
      (match t.mapped with
       | (f, l) :: rest when first <= l + 1 && f <= last + 1 ->
         (min f first, max l last) :: rest
       | spans -> (first, last) :: spans)
  end

let is_mapped t addr = get_page_opt t addr <> None

(* Mark the pages holding [addr, addr+len) as code: subsequent writes into
   them bump [code_version].  Only mapped pages can hold decoded bytes. *)
let note_code t addr len =
  let len = max len 1 in
  let first = page_idx addr in
  let last = page_idx (Int64.add addr (Int64.of_int (len - 1))) in
  for p = first to last do
    match Itbl.find_opt t.pages p with
    | Some pg -> pg.is_code <- true
    | None -> ()
  done

let read_u8 t addr =
  let p = read_page t addr in
  Char.code (Bytes.unsafe_get p.data (offset_of addr))

let read_u8_opt t addr =
  match get_page_opt t addr with
  | Some p -> Some (Char.code (Bytes.get p.data (offset_of addr)))
  | None -> None

let write_u8 t addr v =
  let p = write_page t addr in
  if p.is_code then t.code_version <- t.code_version + 1;
  Bytes.unsafe_set p.data (offset_of addr) (Char.unsafe_chr (v land 0xff))

(* Little-endian load of [n] bytes (1, 2, 4 or 8), byte-loop reference. *)
let read_slow t addr n =
  let r = ref 0L in
  for i = n - 1 downto 0 do
    let byte = read_u8 t (Int64.add addr (Int64.of_int i)) in
    r := Int64.logor (Int64.shift_left !r 8) (Int64.of_int byte)
  done;
  !r

let read t addr n =
  let off = offset_of addr in
  if off + n <= page_size then
    let p = read_page t addr in
    match n with
    | 8 -> Bytes.get_int64_le p.data off
    | 4 ->
      Int64.logand (Int64.of_int32 (Bytes.get_int32_le p.data off)) 0xFFFFFFFFL
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p.data off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le p.data off)
    | _ -> read_slow t addr n
  else read_slow t addr n

(* Little-endian store of the low [n] bytes of [v], byte-loop reference. *)
let write_slow t addr n v =
  for i = 0 to n - 1 do
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
    write_u8 t (Int64.add addr (Int64.of_int i)) byte
  done

let write t addr n v =
  let off = offset_of addr in
  if off + n <= page_size then begin
    let p = write_page t addr in
    if p.is_code then t.code_version <- t.code_version + 1;
    match n with
    | 8 -> Bytes.set_int64_le p.data off v
    | 4 -> Bytes.set_int32_le p.data off (Int64.to_int32 v)
    | 1 -> Bytes.unsafe_set p.data off (Char.unsafe_chr (Int64.to_int v land 0xff))
    | 2 -> Bytes.set_uint16_le p.data off (Int64.to_int v land 0xffff)
    | _ -> write_slow t addr n v
  end
  else write_slow t addr n v

(* Cold continuations for the page-local fast paths that Exec compiles into
   its stack-op closures.  They take the page index and intra-page offset as
   immediate ints, so a hot caller whose address lives in an unboxed int64
   register never has to materialize the boxed address just to have a slow
   path to call; the faulting address is reconstructed exactly (the index is
   the address's top 52 bits, the offset its low 12). *)
let join_addr idx off =
  Int64.logor (Int64.shift_left (Int64.of_int idx) page_bits) (Int64.of_int off)

let find_page t idx off =
  match find_mapped t idx with
  | p -> p
  | exception Not_found ->
    raise (Fault (join_addr idx off, "read of unmapped address"))

let read_page_cold t idx off =
  let p = find_page t idx off in
  t.last_idx <- idx; t.last_page <- p;
  p

(* The stack entry's fills: the same probes, but they leave the last-page
   entry to the data accesses.  Pages are never replaced or unmapped, so an
   entry stays valid for the memory's lifetime, and [is_code] lives on the
   page itself: a push through either entry sees the same code mark. *)
let stack_read_cold t idx off =
  let p = find_page t idx off in
  t.sp_idx <- idx; t.sp_page <- p;
  p

let stack_write_cold t idx =
  let p = new_page t idx in
  t.sp_idx <- idx; t.sp_page <- p;
  p

let read_straddle t idx off n = read_slow t (join_addr idx off) n
let write_straddle t idx off n v = write_slow t (join_addr idx off) n v

(* 8-byte accesses get dedicated entry points: they are the stack traffic of
   every push/pop/call/ret, which under ROP rewriting is most retired
   instructions, so they skip the size dispatch of [read]/[write] entirely. *)
let read_u64 t addr =
  let off = offset_of addr in
  let idx = page_idx addr in
  if off <= page_size - 8 then
    let p = if t.last_idx = idx then t.last_page else read_page_cold t idx off in
    Bytes.get_int64_le p.data off
  else read_straddle t idx off 8

let write_u64 t addr v =
  let off = offset_of addr in
  let idx = page_idx addr in
  if off <= page_size - 8 then begin
    let p = if t.last_idx = idx then t.last_page else write_page_slow t idx in
    if p.is_code then t.code_version <- t.code_version + 1;
    Bytes.set_int64_le p.data off v
  end
  else write_straddle t idx off 8 v

(* Copy a byte string into memory at [addr], mapping pages as needed.
   Blits page-sized chunks: image loading goes through here for every
   section, and a byte loop made it the dominant cost of short runs. *)
let store_bytes t addr (b : bytes) =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_of a in
    let chunk = min (page_size - off) (len - !pos) in
    let p = write_page t a in
    if p.is_code then t.code_version <- t.code_version + 1;
    Bytes.blit b !pos p.data off chunk;
    pos := !pos + chunk
  done

(* Read up to [n] contiguous mapped bytes starting at [addr]; stops early at
   the first unmapped byte.  Used for instruction fetch windows, so it blits
   from at most two pages instead of probing the page table per byte. *)
let read_bytes_avail t addr n =
  let off = offset_of addr in
  let first = min n (page_size - off) in
  match get_page_opt t addr with
  | None -> Bytes.create 0
  | Some p ->
    let buf = Bytes.create n in
    Bytes.blit p.data off buf 0 first;
    if first >= n then buf
    else begin
      let addr' = Int64.add addr (Int64.of_int first) in
      match get_page_opt t addr' with
      | Some p' ->
        Bytes.blit p'.data 0 buf first (n - first);
        buf
      | None -> Bytes.sub buf 0 first
    end

let read_string t addr len =
  Bytes.to_string (read_bytes_avail t addr len)

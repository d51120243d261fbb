(* Binary image: the ELF stand-in.

   An image is a set of sections plus a symbol table.  The standard layout
   mirrors a small static Linux binary:
     .text   at 0x400000   (code, gadgets)
     .data   at 0x800000   (globals, jump tables)
     .rop    at 0xA00000   (ROP chains emitted by the rewriter)
   The stack for native execution grows down from 0x70000000, and the chain
   stacks / stack-switching array live inside .data. *)

let text_base = 0x400000L
let data_base = 0x800000L
let rop_base = 0xA00000L
let stack_top = 0x7000_0000L
let stack_size = 1 lsl 20

(* Executing this address halts the machine: the harness pushes it as the
   return address of the function under test. *)
let exit_stub_addr = 0x4FF000L

type section = {
  sec_name : string;
  sec_addr : int64;
  mutable sec_data : bytes;
  sec_writable : bool;
  sec_executable : bool;
}

type symbol = {
  sym_name : string;
  sym_addr : int64;
  sym_size : int;
  sym_is_function : bool;
}

type t = {
  mutable sections : section list;
  mutable symbols : symbol list;
}

let create () = { sections = []; symbols = [] }

let add_section t ~name ~addr ~data ~writable ~executable =
  let s = { sec_name = name; sec_addr = addr; sec_data = data;
            sec_writable = writable; sec_executable = executable } in
  t.sections <- t.sections @ [ s ];
  s

let find_section t name =
  List.find_opt (fun s -> s.sec_name = name) t.sections

let section_exn t name =
  match find_section t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "no section %s" name)

let section_end s = Int64.add s.sec_addr (Int64.of_int (Bytes.length s.sec_data))

(* Append bytes to a section, returning the address they start at. *)
let append t name (b : bytes) =
  let s = section_exn t name in
  let addr = section_end s in
  s.sec_data <- Bytes.cat s.sec_data b;
  addr

let add_symbol t ?(is_function = false) ~name ~addr ~size () =
  t.symbols <- { sym_name = name; sym_addr = addr; sym_size = size;
                 sym_is_function = is_function } :: t.symbols

let find_symbol t name =
  List.find_opt (fun s -> s.sym_name = name) t.symbols

let symbol_addr t name =
  match find_symbol t name with
  | Some s -> s.sym_addr
  | None -> invalid_arg (Printf.sprintf "undefined symbol %s" name)

let functions t = List.filter (fun s -> s.sym_is_function) t.symbols

let symbol_at t addr =
  List.find_opt (fun s ->
      Int64.compare s.sym_addr addr <= 0
      && Int64.compare addr (Int64.add s.sym_addr (Int64.of_int s.sym_size)) < 0)
    t.symbols

(* Patch [len] bytes of [v] (little-endian) at absolute address [addr]. *)
let patch t addr len v =
  let s =
    List.find_opt (fun s ->
        Int64.compare s.sec_addr addr <= 0
        && Int64.compare addr (section_end s) < 0)
      t.sections
  in
  match s with
  | None -> invalid_arg (Printf.sprintf "patch outside sections: 0x%Lx" addr)
  | Some s ->
    let off = Int64.to_int (Int64.sub addr s.sec_addr) in
    for i = 0 to len - 1 do
      Bytes.set s.sec_data (off + i)
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done

let read_byte t addr =
  let s =
    List.find_opt (fun s ->
        Int64.compare s.sec_addr addr <= 0
        && Int64.compare addr (section_end s) < 0)
      t.sections
  in
  match s with
  | None -> None
  | Some s -> Some (Char.code (Bytes.get s.sec_data (Int64.to_int (Int64.sub addr s.sec_addr))))

(* Replace the body of a function in .text with [b], padding the remainder of
   the old body with invalid bytes (0x00), as the rewriter does when
   installing a pivot stub over the original code. *)
let replace_function_body t sym (b : bytes) =
  let s = section_exn t ".text" in
  let off = Int64.to_int (Int64.sub sym.sym_addr s.sec_addr) in
  if Bytes.length b > sym.sym_size then
    invalid_arg (Printf.sprintf "replacement for %s too large (%d > %d)"
                   sym.sym_name (Bytes.length b) sym.sym_size);
  Bytes.blit b 0 s.sec_data off (Bytes.length b);
  Bytes.fill s.sec_data (off + Bytes.length b) (sym.sym_size - Bytes.length b) '\000'

(* Load the image into a fresh machine, stack mapped, exit stub installed. *)
let load t =
  let mem = Machine.Memory.create () in
  List.iter (fun s -> Machine.Memory.store_bytes mem s.sec_addr s.sec_data) t.sections;
  Machine.Memory.map mem (Int64.sub stack_top (Int64.of_int stack_size)) stack_size;
  Machine.Memory.store_bytes mem exit_stub_addr (X86.Encode.encode X86.Isa.Hlt);
  mem

(* Deep copy (sections are mutable). *)
let copy t = {
  sections =
    List.map (fun s -> { s with sec_data = Bytes.copy s.sec_data }) t.sections;
  symbols = t.symbols;
}

(* --- canonical serialization ------------------------------------------------

   A deterministic flat encoding ("ropimg/v1") used wherever two images must
   be compared byte-for-byte across process boundaries: the obfuscation
   server returns a serialized image as its artifact, and a served rewrite
   must be identical to a one-shot CLI rewrite of the same request.  The
   format is explicit rather than Marshal so its stability is a contract of
   this module, not of the runtime: sections and symbols in insertion order,
   every integer little-endian and fixed-width. *)

let magic = "ropimg/v1\n"

(* Written into one buffer of the exact output length: section data is
   blitted once, with no intermediate string copies and no regrowth. *)
let serialize (t : t) : string =
  let str_len s = 4 + String.length s in
  let len =
    List.fold_left
      (fun acc s ->
         acc + str_len s.sec_name + 8 + 4 + 4 + Bytes.length s.sec_data)
      (String.length magic + 4) t.sections
    + List.fold_left (fun acc sy -> acc + str_len sy.sym_name + 8 + 4 + 4)
      4 t.symbols
  in
  let b = Bytes.create len in
  let pos = ref 0 in
  let u32 v = Bytes.set_int32_le b !pos (Int32.of_int v); pos := !pos + 4 in
  let u64 v = Bytes.set_int64_le b !pos v; pos := !pos + 8 in
  let blit_string s =
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  let str s = u32 (String.length s); blit_string s in
  blit_string magic;
  u32 (List.length t.sections);
  List.iter
    (fun s ->
       str s.sec_name;
       u64 s.sec_addr;
       u32 ((if s.sec_writable then 1 else 0)
            lor (if s.sec_executable then 2 else 0));
       let n = Bytes.length s.sec_data in
       u32 n;
       Bytes.blit s.sec_data 0 b !pos n;
       pos := !pos + n)
    t.sections;
  u32 (List.length t.symbols);
  List.iter
    (fun sy ->
       str sy.sym_name;
       u64 sy.sym_addr;
       u32 sy.sym_size;
       u32 (if sy.sym_is_function then 1 else 0))
    t.symbols;
  assert (!pos = len);
  Bytes.unsafe_to_string b

exception Corrupt of string

let deserialize (s : string) : (t, string) Stdlib.result =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s then raise (Corrupt "truncated image blob")
  in
  let u32 () =
    need 4;
    let v = ref 0 in
    for i = 3 downto 0 do v := (!v lsl 8) lor Char.code s.[!pos + i] done;
    pos := !pos + 4;
    !v
  in
  let u64 () =
    need 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code s.[!pos + i]))
    done;
    pos := !pos + 8;
    !v
  in
  let str () =
    let n = u32 () in
    need n;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  match
    need (String.length magic);
    if String.sub s 0 (String.length magic) <> magic then
      raise (Corrupt "bad image magic");
    pos := String.length magic;
    let nsec = u32 () in
    let sections =
      List.init nsec (fun _ ->
          let name = str () in
          let addr = u64 () in
          let flags = u32 () in
          let data = Bytes.of_string (str ()) in
          { sec_name = name; sec_addr = addr; sec_data = data;
            sec_writable = flags land 1 <> 0;
            sec_executable = flags land 2 <> 0 })
    in
    let nsym = u32 () in
    let symbols =
      List.init nsym (fun _ ->
          let name = str () in
          let addr = u64 () in
          let size = u32 () in
          let is_fn = u32 () <> 0 in
          { sym_name = name; sym_addr = addr; sym_size = size;
            sym_is_function = is_fn })
    in
    if !pos <> String.length s then raise (Corrupt "trailing bytes");
    { sections; symbols }
  with
  | img -> Ok img
  | exception Corrupt m -> Error m

(* Content address of an image: the digest of its canonical serialization. *)
let digest t = Digest.to_hex (Digest.string (serialize t))

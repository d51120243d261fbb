(* Minimal JSON reader, and the one string escaper.

   The repo emits JSON by hand (lib/jobs/manifest.ml, bench/main.ml,
   Trace.to_json), escaping every string with [escape], and, with this
   module, can read it back without an external dependency: the trace
   schema validator re-parses what Trace.to_json wrote, and bench/main.exe
   reads the committed BENCH_emulator.json baseline for its regression
   gate.  It is a strict recursive-descent parser over the full document —
   no streaming, no extensions beyond standard JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string * int      (* message, byte offset *)

(* The body of a JSON string literal holding the bytes of [s].  Quote,
   backslash, newline, carriage return and tab get their short escapes,
   the other control bytes \u00XX; every other byte, 0x7F and non-ASCII
   included, passes through.  [parse] reads the literal back to [s] for
   all 256 byte values. *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l; v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance (); Buffer.contents b
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           let code =
             try int_of_string ("0x" ^ hex)
             with Failure _ -> fail "bad \\u escape"
           in
           pos := !pos + 4;
           (* Encode the code point as UTF-8; surrogates are passed through
              byte-wise, which is enough for round-tripping our own output
              (the emitters only escape control characters). *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while (match peek () with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false) do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance (); skip_ws ();
      if peek () = '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws (); expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      advance (); skip_ws ();
      if peek () = ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements (v :: acc)
          | ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, off) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" off msg)

(* --- accessors ------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None

(* Follow a path of object keys. *)
let rec path ks v =
  match ks with
  | [] -> Some v
  | k :: rest -> (match member k v with Some v -> path rest v | None -> None)

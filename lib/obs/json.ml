(* The repo's JSON: one value type, one compact printer, one reader.

   Every JSON artifact and wire header (run manifests, traces, findings,
   campaign ledgers, roplint reports, the BENCH_*.json files, served
   rewrite replies) is built as a [t] and printed by [to_buffer], so the
   text format lives here and nowhere else.  The printer has one layout
   (no whitespace, members in list order) and one number rule:
   an integral value below 1e15 in magnitude prints with no fraction, NaN
   and the infinities print [null], and any other number prints as the
   shortest of %.15g/%.16g/%.17g that reads back to the same float.  So
   [parse (to_string v) = Ok v] for every [v] without non-finite numbers.
   The reader is a strict recursive-descent parser over the full document
   — no streaming, no extensions beyond standard JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string * int      (* message, byte offset *)

(* --- builders --------------------------------------------------------------- *)

let int n = Num (float_of_int n)

(* The member [(k, f v)] when [v] is present, no member otherwise. *)
let opt k f = function Some v -> [ (k, f v) ] | None -> []

(* [x] rounded to [d] decimal places as printf's %.*f rounds it, for
   measurements whose further digits are noise. *)
let decimals d x =
  if Float.is_finite x then Num (float_of_string (Printf.sprintf "%.*f" d x))
  else Num x

(* --- printer ---------------------------------------------------------------- *)

(* A string literal holding the bytes of [s].  Quote, backslash, newline,
   carriage return and tab get their short escapes, the other control bytes
   \u00XX; every other byte, 0x7F and non-ASCII included, passes through.
   [parse] reads the literal back to [s] for all 256 byte values. *)
let add_string b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let esc =
      match s.[i] with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
      | _ -> ""
    in
    if esc <> "" then begin
      Buffer.add_substring b s !start (i - !start);
      Buffer.add_string b esc;
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start);
  Buffer.add_char b '"'

let add_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (string_of_int (int_of_float f))
  else if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then Buffer.add_string b s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      Buffer.add_string b
        (if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f)
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> add_number b f
  | Str s -> add_string b s
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v -> if i > 0 then Buffer.add_char b ','; to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i kv -> if i > 0 then Buffer.add_char b ','; add_member b kv)
      kvs;
    Buffer.add_char b '}'

and add_member b (k, v) =
  add_string b k;
  Buffer.add_char b ':';
  to_buffer b v

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* Print [Obj (fields @ [ (key, Arr items) ])], pulling [items] one value at
   a time, so a long array (a trace's events) is never held as one tree. *)
let stream_obj b fields key (items : t Seq.t) =
  Buffer.add_char b '{';
  List.iter (fun kv -> add_member b kv; Buffer.add_char b ',') fields;
  add_string b key;
  Buffer.add_string b ":[";
  Seq.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; to_buffer b v) items;
  Buffer.add_string b "]}"

(* --- reader ----------------------------------------------------------------- *)

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
let as_list = function Arr l -> Some l | _ -> None
let as_float = function Num f -> Some f | _ -> None
let as_string = function Str s -> Some s | _ -> None

(* Follow a path of object keys. *)
let rec path ks v =
  match ks with
  | [] -> Some v
  | k :: rest -> (match member k v with Some v -> path rest v | None -> None)

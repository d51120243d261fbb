(* The one-shot rewrite entry point, shared by the CLI, the daemon, the
   check driver and the tests.

   Three things every consumer previously duplicated live here once:

   - the *program registry*: every built-in rewrite target (the toy fact
     program, the base64 sample, the deployability corpus, the ten CLBG
     benchmarks), each with its image builder, the function list to
     obfuscate, and — where the program is meant to be executed — an entry
     function and default argument;

   - *config naming*: the bijection between Table I / Table II
     configuration names ("plain", "rop0.25", "rop1.0+p2+gc") and
     [Ropc.Config.t] values, in both directions, so a config travels over
     the wire and through cache keys as its name;

   - the *warm table*: compiled images, their digests, and prepared
     [Ropc.Rewriter.context]s keyed by program name.  Compilation and the
     found-gadget scan are config- and seed-independent, so a resident
     process pays them once per program; [rewrite] then runs only the
     per-request work.  A fresh warm table per call ([one_shot]) reproduces
     the cold CLI exactly — same entry, same bytes — which is what the
     byte-identity tests lean on. *)

type entry = {
  e_name : string;
  e_build : unit -> Image.t;
  e_funcs : string list;          (* functions the rewriter obfuscates *)
  e_run : (string * int64) option; (* entry function + default argument, for
                                      consumers that execute the program *)
}

let fact_program () =
  let open Minic.Ast in
  program
    [ func ~params:[ "n" ] ~locals:[ "r"; "i" ] "main"
        [ set "r" (c 1);
          For (set "i" (c 1), Bin (Les, v "i", v "n"),
               set "i" (Bin (Add, v "i", c 1)),
               [ set "r" (Bin (Mul, v "r", v "i")) ]);
          Return (v "r") ] ]

let registry () : entry list =
  [ { e_name = "fact";
      e_build = (fun () -> Minic.Codegen.compile (fact_program ()));
      e_funcs = [ "main" ]; e_run = Some ("main", 8L) };
    { e_name = "corpus";
      e_build = Minic.Corpus.compile;
      e_funcs = Minic.Corpus.all_names; e_run = None };
    { e_name = "base64";
      e_build = (fun () -> Minic.Codegen.compile (Minic.Programs.base64_program ()));
      e_funcs = [ "b64_check"; "b64_encode" ]; e_run = Some ("b64_check", 8L) } ]
  @ List.map
      (fun (name, prog, fns, arg) ->
         { e_name = name;
           e_build = (fun () -> Minic.Codegen.compile prog);
           e_funcs = fns; e_run = Some ("bench", arg) })
      Minic.Clbg.all

let names () = List.map (fun e -> e.e_name) (registry ())

let find name = List.find_opt (fun e -> e.e_name = name) (registry ())

(* --- config naming ---------------------------------------------------------- *)

(* Table I feature matrix plus the Table II k sweep (formerly ropcheck's). *)
let config_matrix seed =
  [ ("plain", Ropc.Config.plain ~seed ());
    ("rop0", Ropc.Config.rop_k ~seed 0.0);
    ("rop0.05", Ropc.Config.rop_k ~seed 0.05);
    ("rop0.25", Ropc.Config.rop_k ~seed 0.25);
    ("rop0.5", Ropc.Config.rop_k ~seed 0.5);
    ("rop0.75", Ropc.Config.rop_k ~seed 0.75);
    ("rop1.0", Ropc.Config.rop_k ~seed 1.0);
    ("rop1.0+p2", Ropc.Config.rop_k ~seed ~p2:true 1.0);
    ("rop1.0+gc", Ropc.Config.rop_k ~seed ~confusion:true 1.0);
    ("rop1.0+p2+gc", Ropc.Config.rop_k ~seed ~p2:true ~confusion:true 1.0);
    (* ROPfuscator layers on top of the Table I/II base configs *)
    ("rop0.5+oc", Ropc.Config.rop_k ~seed ~opaque:true 0.5);
    ("rop0.5+ih", Ropc.Config.rop_k ~seed ~hiding:true 0.5);
    ("rop0.5+oc+ih", Ropc.Config.rop_k ~seed ~opaque:true ~hiding:true 0.5);
    ("rop0.5+oc+ih+pf",
     Ropc.Config.rop_k ~seed ~opaque:true ~hiding:true ~pf:true 0.5);
    ("rop1.0+p2+gc+oc+ih",
     Ropc.Config.rop_k ~seed ~p2:true ~confusion:true ~opaque:true
       ~hiding:true 1.0) ]

let matrix_names () = List.map fst (config_matrix 1)

(* Parse a configuration name: "plain", or "ropK" (K the P3 coverage
   fraction) with "+p2" / "+gc" feature suffixes and "+oc" / "+ih" / "+pf"
   ROPfuscator-layer suffixes in any order.  Accepts the exact vocabulary
   [config_name] emits, so names built from CLI flags, cache keys and wire
   requests all resolve to identical configs. *)
let config_of_name ~seed name : (Ropc.Config.t, string) result =
  match String.split_on_char '+' name with
  | [] | [ "" ] -> Error "empty config name"
  | base :: feats ->
    let p2 = ref false and gc = ref false in
    let oc = ref false and ih = ref false and pf = ref false in
    let bad = ref None in
    List.iter
      (fun f ->
         match f with
         | "p2" -> p2 := true
         | "gc" -> gc := true
         | "oc" -> oc := true
         | "ih" -> ih := true
         | "pf" -> pf := true
         | f -> if !bad = None then bad := Some f)
      feats;
    (match !bad with
     | Some f -> Error (Printf.sprintf "unknown feature %S in config %S" f name)
     | None ->
       if base = "plain" then
         if !p2 || !gc || !oc || !ih || !pf then
           Error "config \"plain\" takes no features"
         else Ok (Ropc.Config.plain ~seed ())
       else if String.length base > 3 && String.sub base 0 3 = "rop" then
         match float_of_string_opt (String.sub base 3 (String.length base - 3)) with
         | Some k when k >= 0.0 && k <= 1.0 ->
           Ok
             (Ropc.Config.rop_k ~seed ~p2:!p2 ~confusion:!gc ~opaque:!oc
                ~hiding:!ih ~pf:!pf k)
         | Some _ -> Error (Printf.sprintf "coverage out of [0,1] in config %S" name)
         | None -> Error (Printf.sprintf "bad coverage fraction in config %S" name)
       else Error (Printf.sprintf "unknown config %S" name))

(* The name for a flag combination, normalised so "%g" prints "rop0.25",
   "rop1" prints as "rop1" — callers wanting the canonical matrix names
   should pass the matrix's own k values. *)
let config_name ?(p2 = false) ?(confusion = false) ?(opaque = false)
    ?(hiding = false) ?(pf = false) ~plain k =
  if plain then "plain"
  else
    Printf.sprintf "rop%g%s%s%s%s%s" k
      (if p2 then "+p2" else "")
      (if confusion then "+gc" else "")
      (if opaque then "+oc" else "")
      (if hiding then "+ih" else "")
      (if pf then "+pf" else "")

(* --- warm state ------------------------------------------------------------- *)

type warm = {
  wt_tbl : (string, string * Ropc.Rewriter.context) Hashtbl.t;
      (* program name -> (input image digest, prepared context) *)
}

let warm () = { wt_tbl = Hashtbl.create 16 }

let context_of (w : warm) name : (string * Ropc.Rewriter.context, string) result =
  match Hashtbl.find_opt w.wt_tbl name with
  | Some v -> Ok v
  | None ->
    (match find name with
     | None ->
       Error (Printf.sprintf "unknown program %S (available: %s)" name
                (String.concat ", " (names ())))
     | Some e ->
       let img = Obs.Trace.with_span "serve.compile" e.e_build in
       let digest = Image.digest img in
       let ctx = Ropc.Rewriter.prepare img ~functions:e.e_funcs in
       Hashtbl.replace w.wt_tbl name (digest, ctx);
       Ok (digest, ctx))

let digest_of w name = Result.map fst (context_of w name)

(* --- the rewrite product ---------------------------------------------------- *)

(* Cache key: every parameter that affects the rewritten bytes.  The input
   image digest (not the program name) is the identity, so two names for
   the same bytes share entries and a changed builder invalidates them. *)
let key ~digest ~config ~seed =
  Printf.sprintf "serve/v1|%s|%s|seed=%d" digest config seed

type spec = {
  sp_prog : string;
  sp_config : string;
  sp_seed : int;
}

(* Marshal-plain product of one rewrite: what travels over the worker pipe,
   sits in the shard cache, and backs a protocol reply.  Deliberately free
   of timings — identical inputs must produce identical artifacts. *)
type artifact = {
  a_prog : string;
  a_digest : string;            (* input image digest *)
  a_key : string;
  a_image : string;             (* Image.serialize of the rewritten image *)
  a_image_digest : string;
  a_funcs : (string * string) list;
  a_uses : int;                 (* A of Table III *)
  a_uniq : int;                 (* B of Table III *)
}

let func_status : Ropc.Rewriter.func_result -> string = function
  | Ok st ->
    Printf.sprintf "ok chain=0x%Lx bytes=%d blocks=%d points=%d"
      st.Ropc.Rewriter.fs_chain_addr st.Ropc.Rewriter.fs_chain_bytes
      st.Ropc.Rewriter.fs_blocks st.Ropc.Rewriter.fs_points
  | Error e -> "failed: " ^ Ropc.Rewriter.failure_to_string e

let rewrite (w : warm) (s : spec) : (artifact, string) result =
  match config_of_name ~seed:s.sp_seed s.sp_config with
  | Error e -> Error e
  | Ok config ->
    (match context_of w s.sp_prog with
     | Error e -> Error e
     | Ok (digest, ctx) ->
       let r =
         Obs.Trace.with_span "serve.rewrite" (fun () ->
             Ropc.Rewriter.rewrite_with ctx ~config)
       in
       let ser = Image.serialize r.Ropc.Rewriter.image in
       Ok { a_prog = s.sp_prog;
            a_digest = digest;
            a_key = key ~digest ~config:s.sp_config ~seed:s.sp_seed;
            a_image = ser;
            a_image_digest = Digest.to_hex (Digest.string ser);
            a_funcs =
              List.map (fun (f, res) -> (f, func_status res))
                r.Ropc.Rewriter.funcs;
            a_uses = r.Ropc.Rewriter.total_gadget_uses;
            a_uniq = r.Ropc.Rewriter.unique_gadgets })

(* Cold one-shot: a fresh warm table per call, i.e. exactly what the CLI
   does — compile, scan, rewrite.  The serial baseline of BENCH_serve. *)
let one_shot (s : spec) : (artifact, string) result = rewrite (warm ()) s

(* Full rewriter result (image and audit included) through the same naming
   path, for consumers that need more than the flat artifact (CLI
   execution, verifier passes). *)
let rewrite_full (w : warm) (s : spec) : (Ropc.Rewriter.result, string) result =
  match config_of_name ~seed:s.sp_seed s.sp_config with
  | Error e -> Error e
  | Ok config ->
    (match context_of w s.sp_prog with
     | Error e -> Error e
     | Ok (_, ctx) -> Ok (Ropc.Rewriter.rewrite_with ctx ~config))

(* Uniform diagnostic findings, shared by every static checker.

   ropcheck's typed diagnostics (Diag) and roplint's analysis passes
   (lib/staticanalysis) both render through this one type, so drivers can mix
   findings from either source into a single report with a stable
   severity[tag] function@addr format.  The [tag] is a machine-matchable
   kebab-case slug (tests assert on tags, not message strings). *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  tag : string;                (* machine-matchable kind, e.g. "chain-bad-slot" *)
  func : string option;        (* function the finding belongs to *)
  addr : int64 option;         (* absolute image address, when meaningful *)
  chain_off : int option;      (* offset within the function's chain *)
  msg : string;
}

let make ?(severity = Error) ?func ?addr ?chain_off tag msg =
  { severity; tag; func; addr; chain_off; msg }

let severity_str = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let render f =
  let where =
    (match f.func with Some fn -> [ fn ] | None -> [])
    @ (match f.addr with Some a -> [ Printf.sprintf "@%Lx" a ] | None -> [])
    @ (match f.chain_off with
       | Some o -> [ Printf.sprintf "chain+%d" o ]
       | None -> [])
  in
  let where = match where with [] -> "" | ws -> String.concat " " ws ^ ": " in
  Printf.sprintf "%s[%s] %s%s" (severity_str f.severity) f.tag where f.msg

let errors fs = List.filter (fun f -> f.severity = Error) fs
let warnings fs = List.filter (fun f -> f.severity = Warning) fs

let render_all fs = String.concat "\n" (List.map render fs)

(* Render for a driver report: errors always, the rest only when [verbose];
   one indented line per finding.  Drivers that run checks in worker
   processes (--jobs) build their output from this instead of printing, so
   the parent can emit results in deterministic order. *)
let render_report ?(verbose = false) fs =
  List.filter (fun f -> f.severity = Error || verbose) fs
  |> List.map (fun f -> "  " ^ render f ^ "\n")
  |> String.concat ""

(* Count per severity: (errors, warnings, infos). *)
let counts fs =
  List.fold_left
    (fun (e, w, i) f ->
       match f.severity with
       | Error -> (e + 1, w, i)
       | Warning -> (e, w + 1, i)
       | Info -> (e, w, i + 1))
    (0, 0, 0) fs

let to_json f =
  let module J = Obs.Json in
  J.Obj
    ([ ("severity", J.Str (severity_str f.severity)); ("tag", J.Str f.tag) ]
     @ J.opt "func" (fun fn -> J.Str fn) f.func
     @ J.opt "addr" (fun a -> J.Str (Printf.sprintf "0x%Lx" a)) f.addr
     @ J.opt "chain_off" J.int f.chain_off
     @ [ ("msg", J.Str f.msg) ])

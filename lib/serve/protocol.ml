(* Wire protocol of the obfuscation service.

   Frames are a 4-byte big-endian payload length followed by a JSON
   document, over a Unix-domain socket or a pipe pair.  JSON keeps the
   protocol inspectable (`socat - UNIX:sock | xxd`); every message is an
   Obs.Json.t, printed by Obs.Json's one printer and read back by its
   parser, so encode/decode is lossless for every finite float.  The image
   artifact, the only binary payload, follows the document raw: a rewrite
   reply that carries one is `JSON header with "image_bytes":n, 0x00, n
   image bytes`.  JSON text never holds a raw 0x00, so the first one splits
   header from attachment and every other message is plain JSON.  Every
   request carries a client-assigned [id] echoed in its response, so
   clients may pipeline requests on one connection and correlate
   out-of-order completions.

   Two I/O styles are provided: blocking [read_frame]/[write_frame] for
   clients and tests, and for non-blocking event loops a [deframer] (feed
   whatever [read] returned, get back the complete frames it contained)
   and an [outbox] of frames to write. *)

(* Upper bound on a frame: past this the peer is broken or hostile and the
   connection is cut rather than buffered without bound.  Raw transport
   fits an image twice the size hex-encoding did; the server answers a
   longer reply with an error instead. *)
let max_frame = 8 * 1024 * 1024

(* --- framing ---------------------------------------------------------------- *)

let be32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff

(* The frame writer: the 4-byte length, then [parts] end to end, written
   into one buffer of the exact frame length, so each part is copied once.
   [Error n] refuses an [n]-byte payload past [max_frame] before anything
   is allocated. *)
let frame_parts (parts : string list) : (string, int) result =
  let n = List.fold_left (fun acc s -> acc + String.length s) 0 parts in
  if n > max_frame then Error n
  else begin
    let b = Bytes.create (4 + n) in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    ignore
      (List.fold_left
         (fun off s ->
            Bytes.blit_string s 0 b off (String.length s);
            off + String.length s)
         4 parts);
    Ok (Bytes.unsafe_to_string b)
  end

let frame payload =
  match frame_parts [ payload ] with
  | Ok fr -> fr
  | Error n ->
    invalid_arg (Printf.sprintf "Serve.Protocol.frame: %d bytes > max_frame" n)

let rec retry_read fd b off len =
  try Unix.read fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> retry_read fd b off len

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring fd s !off (n - !off) with
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame fd payload = write_all fd (frame payload)

(* [`Eof] is a clean close at a frame boundary; [`Truncated] is a close
   mid-frame (header or body cut short) and means data was lost.  The
   filled buffer is returned as is: nothing else holds it. *)
let read_exact fd n : (string, [ `Eof | `Truncated ]) result =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match retry_read fd b !off (n - !off) with
    | 0 -> eof := true
    | r -> off := !off + r
    | exception Unix.Unix_error _ -> eof := true
  done;
  if !off = n then Ok (Bytes.unsafe_to_string b)
  else if !off = 0 then Error `Eof
  else Error `Truncated

let read_frame fd : (string, [ `Eof | `Truncated | `Oversized of int ]) result =
  match read_exact fd 4 with
  | Error `Eof -> Error `Eof
  | Error `Truncated -> Error `Truncated
  | Ok hdr ->
    let len = be32 (Bytes.unsafe_of_string hdr) 0 in
    if len > max_frame then Error (`Oversized len)
    else (
      match read_exact fd len with
      | Ok p -> Ok p
      | Error _ -> Error `Truncated)   (* header without full body: data lost *)

(* Incremental deframer for non-blocking reads.  [feed] returns every frame
   completed by the new chunk, in arrival order; an oversized length field
   is an unrecoverable protocol error (the stream can no longer be framed).
   A frame that lies whole in the chunk is sliced straight out of it.  The
   body of a frame cut by a chunk boundary goes into a buffer that becomes
   the frame when its last byte arrives: sized exactly when the frame is at
   most [body_room] bytes, so its bytes are copied once; past that it
   grows, doubling, with what arrives, so a peer that announces a long
   frame and stalls makes the reader hold [body_room] bytes or twice what
   it sent, not the announced length. *)
type deframer = {
  d_hdr : Bytes.t;              (* a length field cut by a chunk boundary *)
  mutable d_hlen : int;         (* its bytes so far; 4 while a body is pending *)
  mutable d_len : int;          (* the pending body's length *)
  mutable d_body : Bytes.t;     (* its buffer, never longer than [d_len] *)
  mutable d_blen : int;         (* its bytes so far *)
}

let deframer () =
  { d_hdr = Bytes.create 4; d_hlen = 0; d_len = 0; d_body = Bytes.empty;
    d_blen = 0 }

let body_room = 65536

(* The one scan loop, over the source view [src.[pos..stop)]: finish the
   pending length field or body from the head of the view, then slice
   every whole frame out of it, then keep the incomplete tail as pending.
   [src] is only read. *)
let feed_view (d : deframer) (src : Bytes.t) pos stop :
  (string list, string) result =
  let rec go pos acc =
    if d.d_hlen = 4 then begin                   (* a pending body *)
      let k = min (d.d_len - d.d_blen) (stop - pos) in
      if d.d_blen + k > Bytes.length d.d_body then begin
        let b =
          Bytes.create
            (min d.d_len (max (d.d_blen + k) (2 * Bytes.length d.d_body)))
        in
        Bytes.blit d.d_body 0 b 0 d.d_blen;
        d.d_body <- b
      end;
      Bytes.blit src pos d.d_body d.d_blen k;
      d.d_blen <- d.d_blen + k;
      if d.d_blen < d.d_len then Ok acc
      else begin
        let fr = Bytes.unsafe_to_string d.d_body in
        d.d_hlen <- 0; d.d_body <- Bytes.empty; d.d_blen <- 0;
        go (pos + k) (fr :: acc)
      end
    end
    else if d.d_hlen = 0 && stop - pos >= 4 then
      body (be32 src pos) (pos + 4) acc
    else if pos = stop then Ok acc
    else begin                                   (* a cut length field *)
      let k = min (4 - d.d_hlen) (stop - pos) in
      Bytes.blit src pos d.d_hdr d.d_hlen k;
      d.d_hlen <- d.d_hlen + k;
      if d.d_hlen < 4 then Ok acc
      else body (be32 d.d_hdr 0) (pos + k) acc
    end
  (* a length field was just read; its body starts at [pos] *)
  and body len pos acc =
    if len > max_frame then
      Error (Printf.sprintf "oversized frame: %d bytes (max %d)" len max_frame)
    else if stop - pos >= len then begin
      d.d_hlen <- 0;
      go (pos + len) (Bytes.sub_string src pos len :: acc)
    end
    else begin
      d.d_hlen <- 4;
      d.d_len <- len;
      d.d_body <- Bytes.create (if len <= body_room then len else body_room);
      d.d_blen <- 0;
      go pos acc
    end
  in
  Result.map List.rev (go pos [])

let feed (d : deframer) (chunk : string) : (string list, string) result =
  feed_view d (Bytes.unsafe_of_string chunk) 0 (String.length chunk)

(* [read_ready]'s one read buffer, shared by every deframer of the process:
   [feed_view] copies out all it keeps before [on_frame] runs, so no frame
   or pending state points into it, and a readable event allocates nothing.
   A buffer per connection would cost 64 KiB for each open one.  The event
   loops that call [read_ready] run on one domain. *)
let read_buf = Bytes.create 65536

(* Read a non-blocking fd until it would block, handing each completed frame
   to [on_frame].  [`Eof] is a closed or failed fd, [`Bad] an unframeable
   stream. *)
let read_ready (d : deframer) fd ~on_frame :
  (unit, [ `Eof | `Bad of string ]) result =
  let buf = read_buf in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Error `Eof
    | n ->
      (match feed_view d buf 0 n with
       | Error m -> Error (`Bad m)
       | Ok frames -> List.iter on_frame frames; go ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> Error `Eof
  in
  go ()

(* Frames awaiting a writable non-blocking fd, written from an offset into
   the head frame: partial writes never copy what is left. *)
type outbox = { o_frames : string Queue.t; mutable o_off : int }

let outbox () = { o_frames = Queue.create (); o_off = 0 }

let enqueue (o : outbox) (fr : string) = Queue.push fr o.o_frames

let has_output (o : outbox) = not (Queue.is_empty o.o_frames)

(* Write until the queue empties or the fd would block; [false] means the
   peer is gone and the queued frames are dropped. *)
let flush_outbox (o : outbox) fd : bool =
  let rec go () =
    match Queue.peek_opt o.o_frames with
    | None -> true
    | Some fr ->
      (match Unix.write_substring fd fr o.o_off (String.length fr - o.o_off) with
       | w when o.o_off + w = String.length fr ->
         ignore (Queue.pop o.o_frames); o.o_off <- 0; go ()
       | w -> o.o_off <- o.o_off + w; go ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
       | exception Unix.Unix_error _ -> Queue.clear o.o_frames; o.o_off <- 0; false)
  in
  go ()

(* --- message types ---------------------------------------------------------- *)

type cache_status = Hit | Miss | Coalesced

let cache_status_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

let cache_status_of_string = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "coalesced" -> Some Coalesced
  | _ -> None

type rewrite_req = {
  q_prog : string option;      (* registry program name *)
  q_digest : string option;    (* input-image digest: cache-only addressing *)
  q_config : string;           (* "plain" | "ropK[+p2][+gc]" *)
  q_seed : int;
  q_want_image : bool;         (* false: audit summary only, no artifact *)
}

type req_body =
  | Rewrite of rewrite_req
  | Stats
  | Ping
  | Shutdown

type request = { rq_id : int; rq_body : req_body }

type rewrite_reply = {
  rr_prog : string;
  rr_digest : string;          (* digest of the *input* image *)
  rr_key : string;             (* full cache key (digest x config x seed) *)
  rr_cache : cache_status;
  rr_image : string option;    (* canonical serialization, raw bytes here
                                  and on the wire (the frame's attachment);
                                  None unless requested *)
  rr_image_digest : string;
  rr_funcs : (string * string) list;  (* per-function audit line *)
  rr_gadget_uses : int;
  rr_unique_gadgets : int;
  rr_queue_ms : float;         (* admission-to-dispatch wait *)
  rr_rewrite_ms : float;       (* rewrite wall time (0 on cache hits) *)
}

type stats = {
  st_uptime_s : float;
  st_jobs : int;
  st_queue_depth : int;
  st_inflight : int;
  st_requests : int;
  st_completed : int;
  st_hits : int;
  st_misses : int;
  st_coalesced : int;
  st_shed : int;
  st_expired : int;
  st_errors : int;
  st_throughput_rps : float;
  st_hit_rate : float;         (* percent, hits / (hits + misses) *)
  st_p50_ms : float;
  st_p90_ms : float;
  st_p99_ms : float;
  st_cache_entries : int;
  st_cache_bytes : int;
}

type resp_body =
  | R_rewrite of rewrite_reply
  | R_stats of stats
  | R_pong
  | R_bye
  | R_error of { code : int; msg : string }
      (* 400 bad request, 404 unknown program/digest, 429 queue full,
         500 worker failure, 503 draining, 504 deadline exceeded *)

type response = { rs_id : int; rs_body : resp_body }

(* --- encoding (Obs.Json) ------------------------------------------------------ *)

module J = Obs.Json

let encode_request (r : request) : string =
  let op name rest = J.Obj (("op", J.Str name) :: ("id", J.int r.rq_id) :: rest) in
  J.to_string
    (match r.rq_body with
     | Rewrite q ->
       let str s = J.Str s in
       op "rewrite"
         (J.opt "prog" str q.q_prog
          @ J.opt "digest" str q.q_digest
          @ [ ("config", J.Str q.q_config); ("seed", J.int q.q_seed);
              ("want_image", J.Bool q.q_want_image) ])
     | Stats -> op "stats" []
     | Ping -> op "ping" []
     | Shutdown -> op "shutdown" [])

(* A response as the pieces of its payload: the JSON header, then for an
   image-carrying reply 0x00 and the image.  [encode_response] and
   [frame_response] lay them end to end, so the image is copied once. *)
let response_parts (r : response) : string list =
  let attachment =
    match r.rs_body with R_rewrite rr -> rr.rr_image | _ -> None
  in
  let op ?(ok = true) name rest =
    J.Obj (("op", J.Str name) :: ("ok", J.Bool ok) :: ("id", J.int r.rs_id) :: rest)
  in
  let header =
    match r.rs_body with
    | R_rewrite rr ->
      op "rewrite"
        ([ ("prog", J.Str rr.rr_prog); ("digest", J.Str rr.rr_digest);
           ("key", J.Str rr.rr_key);
           ("cache", J.Str (cache_status_to_string rr.rr_cache)) ]
         @ J.opt "image_bytes" (fun img -> J.int (String.length img)) attachment
         @ [ ("image_digest", J.Str rr.rr_image_digest);
             ("funcs",
              J.Arr (List.map (fun (f, st) -> J.Arr [ J.Str f; J.Str st ])
                       rr.rr_funcs));
             ("gadget_uses", J.int rr.rr_gadget_uses);
             ("unique_gadgets", J.int rr.rr_unique_gadgets);
             ("queue_ms", J.Num rr.rr_queue_ms);
             ("rewrite_ms", J.Num rr.rr_rewrite_ms) ])
    | R_stats st ->
      op "stats"
        [ ("uptime_s", J.Num st.st_uptime_s); ("jobs", J.int st.st_jobs);
          ("queue_depth", J.int st.st_queue_depth);
          ("inflight", J.int st.st_inflight);
          ("requests", J.int st.st_requests);
          ("completed", J.int st.st_completed); ("hits", J.int st.st_hits);
          ("misses", J.int st.st_misses); ("coalesced", J.int st.st_coalesced);
          ("shed", J.int st.st_shed); ("expired", J.int st.st_expired);
          ("errors", J.int st.st_errors);
          ("throughput_rps", J.Num st.st_throughput_rps);
          ("hit_rate", J.Num st.st_hit_rate); ("p50_ms", J.Num st.st_p50_ms);
          ("p90_ms", J.Num st.st_p90_ms); ("p99_ms", J.Num st.st_p99_ms);
          ("cache_entries", J.int st.st_cache_entries);
          ("cache_bytes", J.int st.st_cache_bytes) ]
    | R_pong -> op "pong" []
    | R_bye -> op "bye" []
    | R_error e ->
      op ~ok:false "error" [ ("code", J.int e.code); ("error", J.Str e.msg) ]
  in
  let header = J.to_string header in
  match attachment with
  | Some img -> [ header; "\000"; img ]
  | None -> [ header ]

let encode_response (r : response) : string = String.concat "" (response_parts r)

(* [frame (encode_response r)] in one buffer; [Error n] is an [n]-byte
   payload past [max_frame]. *)
let frame_response (r : response) : (string, int) result =
  frame_parts (response_parts r)

(* --- decoding (Obs.Json) ---------------------------------------------------- *)

let jget_str k j =
  match Option.bind (J.member k j) J.as_string with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let jget_int_opt k j =
  Option.map int_of_float (Option.bind (J.member k j) J.as_float)

let jget_int k j =
  match jget_int_opt k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" k)

let jget_float k j =
  match Option.bind (J.member k j) J.as_float with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-numeric field %S" k)

let jget_bool_opt k j =
  match J.member k j with Some (J.Bool b) -> Some b | _ -> None

let ( let* ) = Result.bind

let decode_request (payload : string) : (request, string) result =
  let* j = J.parse payload in
  let* () =
    match j with
    | J.Obj _ -> Ok ()
    | _ -> Error "request is not a JSON object"
  in
  let* op = jget_str "op" j in
  let id = Option.value ~default:0 (jget_int_opt "id" j) in
  match op with
  | "rewrite" ->
    let* config = jget_str "config" j in
    let seed = Option.value ~default:1 (jget_int_opt "seed" j) in
    let want = Option.value ~default:false (jget_bool_opt "want_image" j) in
    let prog = Option.bind (J.member "prog" j) J.as_string in
    let digest = Option.bind (J.member "digest" j) J.as_string in
    Ok { rq_id = id;
         rq_body = Rewrite { q_prog = prog; q_digest = digest;
                             q_config = config; q_seed = seed;
                             q_want_image = want } }
  | "stats" -> Ok { rq_id = id; rq_body = Stats }
  | "ping" -> Ok { rq_id = id; rq_body = Ping }
  | "shutdown" -> Ok { rq_id = id; rq_body = Shutdown }
  | op -> Error (Printf.sprintf "unknown op %S" op)

let decode_funcs j =
  match Option.bind (J.member "funcs" j) J.as_list with
  | None -> Error "missing funcs array"
  | Some items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | J.Arr [ J.Str f; J.Str st ] :: rest ->
        go ((f, st) :: acc) rest
      | _ -> Error "malformed funcs entry"
    in
    go [] items

(* The header is everything before the first 0x00; the attachment, if any,
   everything after it, and it must be exactly [image_bytes] long. *)
let decode_response (payload : string) : (response, string) result =
  let header, attachment =
    match String.index_opt payload '\000' with
    | None -> (payload, None)
    | Some i ->
      ( String.sub payload 0 i,
        Some (String.sub payload (i + 1) (String.length payload - i - 1)) )
  in
  let* j = J.parse header in
  let* op = jget_str "op" j in
  let id = Option.value ~default:0 (jget_int_opt "id" j) in
  let* image =
    match J.member "image_bytes" j, attachment with
    | None, None -> Ok None
    | Some (J.Num n), Some a
      when op = "rewrite" && n = float_of_int (String.length a) -> Ok (Some a)
    | _ -> Error "image_bytes does not match the attached bytes"
  in
  match op with
  | "rewrite" ->
    let* prog = jget_str "prog" j in
    let* digest = jget_str "digest" j in
    let* key = jget_str "key" j in
    let* cache_s = jget_str "cache" j in
    let* cache =
      match cache_status_of_string cache_s with
      | Some c -> Ok c
      | None -> Error (Printf.sprintf "bad cache status %S" cache_s)
    in
    let* image_digest = jget_str "image_digest" j in
    let* funcs = decode_funcs j in
    let* uses = jget_int "gadget_uses" j in
    let* uniq = jget_int "unique_gadgets" j in
    let* queue_ms = jget_float "queue_ms" j in
    let* rewrite_ms = jget_float "rewrite_ms" j in
    Ok { rs_id = id;
         rs_body = R_rewrite { rr_prog = prog; rr_digest = digest; rr_key = key;
                               rr_cache = cache; rr_image = image;
                               rr_image_digest = image_digest; rr_funcs = funcs;
                               rr_gadget_uses = uses; rr_unique_gadgets = uniq;
                               rr_queue_ms = queue_ms; rr_rewrite_ms = rewrite_ms } }
  | "stats" ->
    let* uptime = jget_float "uptime_s" j in
    let* jobs = jget_int "jobs" j in
    let* qd = jget_int "queue_depth" j in
    let* infl = jget_int "inflight" j in
    let* reqs = jget_int "requests" j in
    let* comp = jget_int "completed" j in
    let* hits = jget_int "hits" j in
    let* misses = jget_int "misses" j in
    let* coal = jget_int "coalesced" j in
    let* shed = jget_int "shed" j in
    let* expired = jget_int "expired" j in
    let* errors = jget_int "errors" j in
    let* rps = jget_float "throughput_rps" j in
    let* hr = jget_float "hit_rate" j in
    let* p50 = jget_float "p50_ms" j in
    let* p90 = jget_float "p90_ms" j in
    let* p99 = jget_float "p99_ms" j in
    let* ce = jget_int "cache_entries" j in
    let* cb = jget_int "cache_bytes" j in
    Ok { rs_id = id;
         rs_body = R_stats { st_uptime_s = uptime; st_jobs = jobs;
                             st_queue_depth = qd; st_inflight = infl;
                             st_requests = reqs; st_completed = comp;
                             st_hits = hits; st_misses = misses;
                             st_coalesced = coal; st_shed = shed;
                             st_expired = expired; st_errors = errors;
                             st_throughput_rps = rps; st_hit_rate = hr;
                             st_p50_ms = p50; st_p90_ms = p90; st_p99_ms = p99;
                             st_cache_entries = ce; st_cache_bytes = cb } }
  | "pong" -> Ok { rs_id = id; rs_body = R_pong }
  | "bye" -> Ok { rs_id = id; rs_body = R_bye }
  | "error" ->
    let* code = jget_int "code" j in
    let* msg = jget_str "error" j in
    Ok { rs_id = id; rs_body = R_error { code; msg } }
  | op -> Error (Printf.sprintf "unknown op %S" op)

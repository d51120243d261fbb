(* lib/serve: wire protocol, one-shot entry, and server semantics.

   The protocol tests are pure (encode/decode, framing, fuzz).  The server
   tests drive a real forked server — over a socketpair ([L_pair], the
   --stdio mode) for the semantics that need deterministic frame batching,
   and over a real Unix-domain socket for the connect/accept path.  All
   servers run with [jobs = 0] (inline compute on the event loop): every
   frame batch written in a single [write] is admitted in one read phase
   before the next dispatch, which makes coalescing, shedding and drain
   order exact rather than probabilistic. *)

module P = Serve.Protocol
module O = Serve.Oneshot

let () = ignore (Unix.alarm 600)   (* hard backstop: a hung server fails CI *)

let tmpdir () =
  let d = Filename.temp_file "serve_test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let ok = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let spec p c s = { O.sp_prog = p; sp_config = c; sp_seed = s }

(* --- protocol: round trips --------------------------------------------------- *)

let rw ?(id = 1) ?(seed = 1) ?(want = false) ?digest ?prog config =
  { P.rq_id = id;
    rq_body =
      P.Rewrite
        { P.q_prog = prog; q_digest = digest; q_config = config;
          q_seed = seed; q_want_image = want } }

let sample_reply ~image =
  { P.rr_prog = "fact";
    rr_digest = String.make 32 'a';
    rr_key = "serve/v1|aaaa|rop0.25|seed=7";
    rr_cache = P.Miss;
    rr_image = image;
    rr_image_digest = String.make 32 'b';
    rr_funcs = [ ("main", "ok chain=0x400000 bytes=128 blocks=3 points=2");
                 ("aux", "failed: no gadget") ];
    rr_gadget_uses = 123;
    rr_unique_gadgets = 17;
    rr_queue_ms = 0.25;
    rr_rewrite_ms = 3.0 }

let sample_stats =
  { P.st_uptime_s = 12.5; st_jobs = 4; st_queue_depth = 2; st_inflight = 3;
    st_requests = 100; st_completed = 90; st_hits = 40; st_misses = 50;
    st_coalesced = 5; st_shed = 3; st_expired = 1; st_errors = 1;
    st_throughput_rps = 7.2; st_hit_rate = 44.44444444444444;
    st_p50_ms = 1.5; st_p90_ms = 9.0; st_p99_ms = 30.125;
    st_cache_entries = 50; st_cache_bytes = 123456 }

let test_request_roundtrip () =
  let reqs =
    [ rw ~id:1 ~prog:"fact" "rop0.25";
      rw ~id:42 ~seed:9 ~want:true ~prog:"base64" "rop1.0+p2+gc";
      rw ~id:3 ~digest:(String.make 32 'f') "plain";
      rw ~id:4 ~prog:"corpus" ~digest:"dd" ~seed:0 "rop0";
      { P.rq_id = 5; rq_body = P.Stats };
      { P.rq_id = 6; rq_body = P.Ping };
      { P.rq_id = 7; rq_body = P.Shutdown } ]
  in
  List.iter
    (fun r ->
       match P.decode_request (P.encode_request r) with
       | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
       | Error m -> Alcotest.failf "decode failed: %s" m)
    reqs

let test_response_roundtrip () =
  (* the image payload covers every byte value: the attachment must be 8-bit
     clean, and the JSON printer must round-trip the timing floats losslessly *)
  let all_bytes = String.init 256 Char.chr in
  let resps =
    [ { P.rs_id = 1; rs_body = P.R_rewrite (sample_reply ~image:(Some all_bytes)) };
      { P.rs_id = 2;
        rs_body =
          P.R_rewrite
            { (sample_reply ~image:None) with
              P.rr_cache = P.Hit; rr_queue_ms = 0.0; rr_rewrite_ms = 0.0 } };
      { P.rs_id = 3;
        rs_body =
          P.R_rewrite
            { (sample_reply ~image:None) with
              P.rr_cache = P.Coalesced; rr_funcs = [];
              rr_rewrite_ms = 1.0 /. 3.0 } };
      { P.rs_id = 4; rs_body = P.R_stats sample_stats };
      { P.rs_id = 5; rs_body = P.R_pong };
      { P.rs_id = 6; rs_body = P.R_bye };
      { P.rs_id = 0; rs_body = P.R_error { code = 429; msg = "queue full" } };
      { P.rs_id = 7;
        rs_body = P.R_error { code = 400; msg = "with \"quotes\"\nand\tctrl \x01" } } ]
  in
  List.iter
    (fun r ->
       match P.decode_response (P.encode_response r) with
       | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
       | Error m -> Alcotest.failf "decode failed: %s" m)
    resps

(* An image-carrying rewrite reply is its JSON header, one 0x00, then the raw
   image; [image_bytes] in the header must equal the attachment's length. *)
let test_attachment () =
  let reply image = { P.rs_id = 7; rs_body = P.R_rewrite (sample_reply ~image) } in
  let roundtrips what r =
    Alcotest.(check bool) what true (P.decode_response (P.encode_response r) = Ok r)
  in
  let rejects what payload =
    match P.decode_response payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  let bare = P.encode_response (reply None) in
  Alcotest.(check bool) "header-only reply has no attachment" false
    (String.contains bare '\000');
  roundtrips "header-only reply round-trips" (reply None);
  roundtrips "every byte value round-trips"
    (reply (Some (String.init 256 Char.chr ^ "\n\x00")));
  let full = P.encode_response (reply (Some "ab\x00\ncd")) in
  let header = String.sub full 0 (String.index full '\000') in
  rejects "attachment longer than image_bytes" (full ^ "x");
  rejects "attachment shorter than image_bytes"
    (String.sub full 0 (String.length full - 1));
  rejects "image_bytes without an attachment" header;
  rejects "attachment without image_bytes" (bare ^ "\000ab\x00\ncd");
  rejects "attachment on a pong"
    (P.encode_response { P.rs_id = 1; rs_body = P.R_pong } ^ "\000x");
  rejects "image_bytes on a pong"
    "{\"op\":\"pong\",\"ok\":true,\"id\":1,\"image_bytes\":1}\000x";
  (* golden: pins the frame layout byte for byte *)
  let golden =
    { P.rs_id = 9;
      rs_body =
        P.R_rewrite
          { P.rr_prog = "fact"; rr_digest = "d"; rr_key = "k"; rr_cache = P.Hit;
            rr_image = Some "\x00\n\xff"; rr_image_digest = "i";
            rr_funcs = [ ("main", "ok") ]; rr_gadget_uses = 2;
            rr_unique_gadgets = 1; rr_queue_ms = 0.0; rr_rewrite_ms = 0.5 } }
  in
  Alcotest.(check string) "golden image reply frame"
    "\x00\x00\x00\xd4\
     {\"op\":\"rewrite\",\"ok\":true,\"id\":9,\"prog\":\"fact\",\"digest\":\"d\",\
     \"key\":\"k\",\"cache\":\"hit\",\"image_bytes\":3,\"image_digest\":\"i\",\
     \"funcs\":[[\"main\",\"ok\"]],\"gadget_uses\":2,\"unique_gadgets\":1,\
     \"queue_ms\":0,\"rewrite_ms\":0.5}\
     \x00\x00\n\xff"
    (P.frame (P.encode_response golden))

(* --- protocol: framing ------------------------------------------------------- *)

let test_frame_blocking () =
  let r, w = Unix.pipe () in
  P.write_frame w "hello";
  P.write_frame w "";   (* zero-length payload is a legal frame *)
  Alcotest.(check string) "first frame" "hello"
    (match P.read_frame r with Ok p -> p | Error _ -> Alcotest.fail "read 1");
  Alcotest.(check string) "empty frame" ""
    (match P.read_frame r with Ok p -> p | Error _ -> Alcotest.fail "read 2");
  Unix.close w;
  (match P.read_frame r with
   | Error `Eof -> ()
   | _ -> Alcotest.fail "close at frame boundary must read as Eof");
  Unix.close r

let test_frame_truncated () =
  (* header cut short *)
  let r, w = Unix.pipe () in
  P.write_all w "\x00\x00";
  Unix.close w;
  (match P.read_frame r with
   | Error `Truncated -> ()
   | _ -> Alcotest.fail "partial header must read as Truncated");
  Unix.close r;
  (* full header, body cut short *)
  let r, w = Unix.pipe () in
  let f = P.frame "abcdef" in
  P.write_all w (String.sub f 0 (String.length f - 2));
  Unix.close w;
  (match P.read_frame r with
   | Error `Truncated -> ()
   | _ -> Alcotest.fail "partial body must read as Truncated");
  Unix.close r

let test_frame_oversized () =
  let r, w = Unix.pipe () in
  let len = P.max_frame + 1 in
  let hdr =
    String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
  in
  P.write_all w hdr;
  (match P.read_frame r with
   | Error (`Oversized n) ->
     Alcotest.(check int) "oversized length reported" len n
   | _ -> Alcotest.fail "oversized header must be rejected");
  Unix.close w;
  Unix.close r;
  match P.frame (String.make (P.max_frame + 1) 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frame() must refuse oversized payloads"

let test_deframer_incremental () =
  let payloads = [ "alpha"; ""; "bravo-bravo"; String.make 1000 'z' ] in
  let stream = String.concat "" (List.map P.frame payloads) in
  let d = P.deframer () in
  (* worst-case fragmentation: one byte per feed *)
  let got = ref [] in
  String.iter
    (fun ch ->
       match P.feed d (String.make 1 ch) with
       | Ok fs -> got := !got @ fs
       | Error m -> Alcotest.failf "deframer error: %s" m)
    stream;
  Alcotest.(check (list string)) "frames reassembled in order" payloads !got;
  (* an oversized length field poisons the stream permanently *)
  let d = P.deframer () in
  let len = P.max_frame + 1 in
  let hdr =
    String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
  in
  match P.feed d hdr with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deframer must reject an oversized length"

(* --- protocol: the frame writer and the deframer, by property ------------- *)

(* Arbitrary bytes: images, names and messages hold 0x00, '\n' and every
   other byte value. *)
let gen_bytes max = QCheck.Gen.(string_size ~gen:char (0 -- max))

let gen_response : P.response QCheck.Gen.t =
  let open QCheck.Gen in
  let image =
    frequency
      [ (1, return None); (3, map Option.some (gen_bytes 600));
        (1, return (Some (String.init 256 Char.chr ^ "\000\n"))) ]
  in
  let ms = oneofl [ 0.0; 0.25; 1.0 /. 3.0; 3.0; 1e-9; 12345.678 ] in
  let rewrite =
    let+ image = image
    and+ cache = oneofl [ P.Hit; P.Miss; P.Coalesced ]
    and+ prog = gen_bytes 12
    and+ funcs = list_size (0 -- 3) (pair (gen_bytes 8) (gen_bytes 24))
    and+ uses = 0 -- 1_000_000
    and+ queue_ms = ms
    and+ rewrite_ms = ms in
    P.R_rewrite
      { (sample_reply ~image) with
        P.rr_prog = prog; rr_cache = cache; rr_funcs = funcs;
        rr_gadget_uses = uses; rr_queue_ms = queue_ms;
        rr_rewrite_ms = rewrite_ms }
  in
  let error =
    let+ code = oneofl [ 400; 404; 429; 500; 503; 504 ]
    and+ msg = gen_bytes 40 in
    P.R_error { code; msg }
  in
  let+ rs_id = 0 -- 1_000_000
  and+ rs_body =
    frequency
      [ (4, rewrite); (1, return (P.R_stats sample_stats)); (1, return P.R_pong);
        (1, return P.R_bye); (1, error) ]
  in
  { P.rs_id; rs_body }

let arb_response =
  QCheck.make ~print:(fun r -> String.escaped (P.encode_response r)) gen_response

let prop_frame_writer =
  QCheck.Test.make ~name:"frame writer = frame (encode_response r)" ~count:300
    arb_response
    (fun r -> P.frame_response r = Ok (P.frame (P.encode_response r)))

let prop_response_inverse =
  QCheck.Test.make ~name:"decode_response inverts encode_response" ~count:300
    arb_response
    (fun r -> P.decode_response (P.encode_response r) = Ok r)

(* The writer refuses a payload past [max_frame], reporting its length, and
   frames one of exactly [max_frame] bytes. *)
let test_frame_writer_oversized () =
  let reply n =
    { P.rs_id = 1;
      rs_body = P.R_rewrite (sample_reply ~image:(Some (String.make n 'x'))) }
  in
  let probe = P.max_frame - 1000 in
  let overhead = String.length (P.encode_response (reply probe)) - probe in
  let fits = P.max_frame - overhead in
  (match P.frame_response (reply fits) with
   | Ok fr -> Alcotest.(check int) "a max_frame payload is framed"
                (4 + P.max_frame) (String.length fr)
   | Error n -> Alcotest.failf "a %d-byte payload was refused" n);
  match P.frame_response (reply (fits + 1)) with
  | Error n -> Alcotest.(check int) "refused payload length" (P.max_frame + 1) n
  | Ok _ -> Alcotest.fail "the writer must refuse a payload past max_frame"

(* Allocation fence: the frame writer copies the image once.  For a 1 MiB
   image it may allocate the image's bytes plus 4 KiB (header, length,
   list cells).  Before the writer, [encode_response] and [frame] built the
   same frame through two buffers, one of which regrew, and allocated
   6310267 bytes, 6.0 times the image. *)
let test_frame_writer_alloc () =
  let n = 1 lsl 20 in
  let r =
    { P.rs_id = 9;
      rs_body = P.R_rewrite (sample_reply ~image:(Some (String.make n 'x'))) }
  in
  ignore (P.frame_response r);
  let a0 = Gc.allocated_bytes () in
  let fr = P.frame_response r in
  let bytes = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity fr);
  if bytes > float_of_int (n + 4096) then
    Alcotest.failf "%.0f bytes allocated to frame a %d-byte image" bytes n

(* [feed] over [stream] cut at the offsets [cuts] (ascending, each in
   [0, length]); fails on a deframer error. *)
let feed_cut stream cuts =
  let d = P.deframer () in
  let bounds = (0 :: cuts) @ [ String.length stream ] in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      (match P.feed d (String.sub stream a (b - a)) with
       | Ok fs -> go (List.rev_append fs acc) rest
       | Error m -> Alcotest.failf "deframer error: %s" m)
    | _ -> List.rev acc
  in
  go [] bounds

let prop_feed_chunkings =
  let gen =
    QCheck.Gen.(
      let* payloads = list_size (0 -- 6) (gen_bytes 300) in
      let len =
        List.fold_left (fun a p -> a + 4 + String.length p) 0 payloads
      in
      let+ cuts = list_size (0 -- 12) (0 -- len) in
      (payloads, List.sort compare cuts))
  in
  QCheck.Test.make ~name:"random chunkings = byte-by-byte feeding" ~count:300
    (QCheck.make gen)
    (fun (payloads, cuts) ->
       let stream = String.concat "" (List.map P.frame payloads) in
       let bytewise =
         feed_cut stream (List.init (String.length stream) Fun.id)
       in
       bytewise = payloads && feed_cut stream cuts = payloads)

(* Every chunking of a three-frame stream into at most three chunks.  It
   holds, among others, splits inside each 4-byte length (cut at 2), several
   frames in one chunk (no cut), and a chunk that completes a pending frame
   and carries the next one whole (cut at 5: the second chunk ends the
   first body, then holds the empty frame and the third).  A length past
   [max_frame] is refused however its four bytes arrive. *)
let test_feed_every_split () =
  let payloads = [ "ab"; ""; "cdefgh" ] in
  let stream = String.concat "" (List.map P.frame payloads) in
  let n = String.length stream in
  for i = 0 to n do
    for j = i to n do
      Alcotest.(check (list string))
        (Printf.sprintf "cut at %d and %d" i j) payloads
        (feed_cut stream [ i; j ])
    done
  done;
  let len = P.max_frame + 1 in
  let hdr =
    String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
  in
  for k = 1 to 3 do
    let d = P.deframer () in
    (match P.feed d (String.sub hdr 0 k) with
     | Ok [] -> ()
     | _ -> Alcotest.failf "a %d-byte partial length must stay pending" k);
    match P.feed d (String.sub hdr k (4 - k)) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "oversized length split at %d accepted" k
  done

(* A frame longer than the exact-size room arrives whole under every
   chunking.  A peer that announces a long frame and sends ten bytes makes
   the deframer allocate its 64 KiB room, not the announced 3 MiB. *)
let test_feed_long_frames () =
  let rng = Util.Rng.create 77 in
  let payload = String.init 200_000 (fun _ -> Char.chr (Util.Rng.int rng 256)) in
  let stream = P.frame payload ^ P.frame "tail" in
  let n = String.length stream in
  List.iter
    (fun (name, cuts) ->
       Alcotest.(check bool) name true
         (feed_cut stream cuts = [ payload; "tail" ]))
    [ ("one byte, then the rest", [ 1 ]);
      ("inside the length", [ 2 ]);
      ("ten body bytes first", [ 14 ]);
      ("64 KiB reads", List.init (n / 65536) (fun i -> (i + 1) * 65536));
      ("7000-byte reads", List.init (n / 7000) (fun i -> (i + 1) * 7000));
      ("all but the last byte", [ n - 9 ]) ];
  let len = 3 * 1024 * 1024 in
  let long = String.make len 'q' in
  let fr = P.frame long in
  let d = P.deframer () in
  let a0 = Gc.allocated_bytes () in
  (match P.feed d (String.sub fr 0 14) with
   | Ok [] -> ()
   | _ -> Alcotest.fail "a stalled long frame must stay pending");
  let bytes = Gc.allocated_bytes () -. a0 in
  if bytes > float_of_int (65536 + 4096) then
    Alcotest.failf "%.0f bytes held for 10 bytes of a %d-byte frame" bytes len;
  let rec rest pos acc =
    if pos >= String.length fr then acc
    else
      let k = min 65536 (String.length fr - pos) in
      match P.feed d (String.sub fr pos k) with
      | Ok fs -> rest (pos + k) (acc @ fs)
      | Error m -> Alcotest.failf "deframer error: %s" m
  in
  Alcotest.(check bool) "the long frame completes" true (rest 14 [] = [ long ])

(* --- protocol: decoder fuzz -------------------------------------------------- *)

(* Decoders face the network: whatever bytes arrive, they must return
   [Error], never raise.  Half the cases are mutations of a valid message
   (the adversarial-but-plausible region), half are raw noise. *)
let fuzz_one rng valid decode =
  let s =
    if Util.Rng.bool rng then begin
      let n = String.length valid in
      let b = Bytes.of_string valid in
      for _ = 1 to Util.Rng.int rng 4 do
        Bytes.set b (Util.Rng.int rng n) (Char.chr (Util.Rng.int rng 256))
      done;
      Bytes.sub_string b 0 (Util.Rng.int rng (n + 1))
    end
    else
      String.init (Util.Rng.int rng 80) (fun _ -> Char.chr (Util.Rng.int rng 256))
  in
  match decode s with Ok _ -> () | Error (_ : string) -> ()

let test_decode_fuzz () =
  let rng = Util.Rng.of_key ~seed:11 "serve-protocol-fuzz" in
  let vreq = P.encode_request (rw ~id:7 ~want:true ~prog:"fact" "rop0.25") in
  let vresp =
    P.encode_response
      { P.rs_id = 7; rs_body = P.R_rewrite (sample_reply ~image:(Some "\x00\xff")) }
  in
  let vstats =
    P.encode_response { P.rs_id = 8; rs_body = P.R_stats sample_stats }
  in
  for _ = 1 to 400 do
    fuzz_one rng vreq P.decode_request;
    fuzz_one rng vresp P.decode_response;
    fuzz_one rng vstats P.decode_response
  done

(* --- oneshot: config naming -------------------------------------------------- *)

let test_config_names () =
  (* every matrix name parses back to exactly the matrix's config, at a
     non-default seed (the seed must thread through parsing) *)
  List.iter
    (fun (name, cfg) ->
       match O.config_of_name ~seed:5 name with
       | Ok cfg' ->
         Alcotest.(check bool)
           (Printf.sprintf "%S resolves to its matrix config" name) true
           (cfg = cfg')
       | Error m -> Alcotest.failf "%S failed to parse: %s" name m)
    (O.config_matrix 5);
  (* feature order is immaterial *)
  Alcotest.(check bool) "+gc+p2 = +p2+gc" true
    (ok (O.config_of_name ~seed:1 "rop1.0+gc+p2")
     = ok (O.config_of_name ~seed:1 "rop1.0+p2+gc"));
  (* config_name emits the vocabulary config_of_name accepts *)
  Alcotest.(check string) "name of k=0.25" "rop0.25"
    (O.config_name ~plain:false 0.25);
  Alcotest.(check string) "name with features" "rop1+p2+gc"
    (O.config_name ~p2:true ~confusion:true ~plain:false 1.0);
  Alcotest.(check string) "plain wins" "plain" (O.config_name ~plain:true 0.5);
  List.iter
    (fun bad ->
       match O.config_of_name ~seed:1 bad with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ ""; "plain+p2"; "rop"; "rop2.0"; "rop-0.1"; "ropx"; "rop0.5+zz";
      "gadget"; "+p2" ]

(* --- oneshot: determinism and image canonicalisation ------------------------- *)

let test_oneshot_deterministic () =
  let a1 = ok (O.one_shot (spec "fact" "rop1.0+p2+gc" 3)) in
  let a2 = ok (O.one_shot (spec "fact" "rop1.0+p2+gc" 3)) in
  Alcotest.(check string) "same spec, same bytes" a1.O.a_image a2.O.a_image;
  Alcotest.(check string) "same digest" a1.O.a_image_digest a2.O.a_image_digest;
  Alcotest.(check bool) "per-function audit carried" true (a1.O.a_funcs <> []);
  let a3 = ok (O.one_shot (spec "fact" "rop1.0+p2+gc" 4)) in
  Alcotest.(check bool) "seed changes the bytes" false
    (a1.O.a_image = a3.O.a_image);
  (* a warm table reused across configs still reproduces the cold path:
     the prepared context is config- and seed-independent *)
  let w = O.warm () in
  let b1 = ok (O.rewrite w (spec "fact" "rop1.0+p2+gc" 3)) in
  let _ = ok (O.rewrite w (spec "fact" "rop0.25" 9)) in
  let b2 = ok (O.rewrite w (spec "fact" "rop1.0+p2+gc" 3)) in
  Alcotest.(check string) "warm = cold" a1.O.a_image b1.O.a_image;
  Alcotest.(check string) "warm unaffected by interleaved configs"
    a1.O.a_image b2.O.a_image;
  match O.one_shot (spec "no-such-program" "rop0.25" 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown program must be an error"

(* Golden byte identity of the whole served key space: every registry
   program under every matrix config at seed 1, cold.  The constants were
   recorded once and are never regenerated to make a change pass: a rewriter
   refactor that claims to keep the transformation's output must keep these
   exactly (Table III's A and B, the chain bytes, and every image byte). *)
let golden_uses = 669351
let golden_uniq = 141744
let golden_chain_bytes = 6161279
let golden_digest = "d261ded3e0af4cbcf09f390c2d9c3955"

let test_oneshot_golden () =
  let uses = ref 0 and uniq = ref 0 and chain_bytes = ref 0 in
  let digests = Buffer.create 8192 in
  List.iter
    (fun prog ->
       List.iter
         (fun cfg ->
            let a = ok (O.one_shot (spec prog cfg 1)) in
            uses := !uses + a.O.a_uses;
            uniq := !uniq + a.O.a_uniq;
            (* fs_chain_bytes, as [O.func_status] prints it *)
            List.iter
              (fun (_, st) ->
                 if String.length st > 3 && String.sub st 0 3 = "ok " then
                   Scanf.sscanf st "ok chain=0x%_Lx bytes=%d" (fun n ->
                       chain_bytes := !chain_bytes + n))
              a.O.a_funcs;
            Buffer.add_string digests a.O.a_image_digest)
         (O.matrix_names ()))
    (O.names ());
  let digest = Digest.to_hex (Digest.string (Buffer.contents digests)) in
  Alcotest.(check int) "sum of a_uses" golden_uses !uses;
  Alcotest.(check int) "sum of a_uniq" golden_uniq !uniq;
  Alcotest.(check int) "sum of fs_chain_bytes" golden_chain_bytes !chain_bytes;
  Alcotest.(check string) "md5 of the image digests" golden_digest digest

let test_image_roundtrip () =
  let e = Option.get (O.find "base64") in
  let img = e.O.e_build () in
  let ser = Image.serialize img in
  let img' = ok (Image.deserialize ser) in
  Alcotest.(check string) "canonical form is a fixpoint" ser
    (Image.serialize img');
  Alcotest.(check string) "digest = digest of serialization"
    (Image.digest img)
    (Digest.to_hex (Digest.string ser));
  match Image.deserialize (String.sub ser 0 (String.length ser - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated serialization must be rejected"

(* --- server harness ---------------------------------------------------------- *)

let test_opts () =
  { Serve.Server.default_opts with Serve.Server.cache_dir = tmpdir () }

(* Fork a server over a socketpair; the parent keeps the client end.  The
   single fd pair is the --stdio deployment shape. *)
let with_pair_server opts f =
  let srv, cli = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close cli;
    let rc =
      try Serve.Server.run ~opts (Serve.Server.L_pair (srv, srv))
      with _ -> 3
    in
    Unix._exit rc
  | pid ->
    Unix.close srv;
    let finally () =
      (try Unix.close cli with Unix.Unix_error _ -> ());
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally (fun () -> f cli pid)

let with_socket_server opts f =
  let path = Filename.temp_file "serve_test" ".sock" in
  Sys.remove path;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let rc =
      try Serve.Server.run ~opts (Serve.Server.L_socket path) with _ -> 3
    in
    Unix._exit rc
  | pid ->
    let rec connect n =
      if n = 0 then Alcotest.fail "server did not come up"
      else
        match Serve.Client.connect path with
        | Ok c -> c
        | Error _ ->
          Unix.sleepf 0.02;
          connect (n - 1)
    in
    let finally () =
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ ->
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
       | _ -> ()
       | exception Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ()
    in
    Fun.protect ~finally (fun () -> f (connect 250) pid)

(* One write = one read batch on the server: admission order and batching
   are deterministic for everything sent here. *)
let send_batch fd reqs =
  P.write_all fd
    (String.concat "" (List.map (fun r -> P.frame (P.encode_request r)) reqs))

let recv fd =
  match P.read_frame fd with
  | Ok p -> ok (P.decode_response p)
  | Error `Eof -> Alcotest.fail "server closed early"
  | Error `Truncated -> Alcotest.fail "truncated frame from server"
  | Error (`Oversized n) -> Alcotest.failf "oversized frame from server: %d" n

let rec recv_n fd n = if n = 0 then [] else recv fd :: recv_n fd (n - 1)

let expect_eof fd =
  match P.read_frame fd with
  | Error `Eof -> ()
  | Ok _ -> Alcotest.fail "expected EOF, got a frame"
  | Error _ -> Alcotest.fail "expected clean EOF"

let expect_exit0 pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | _ -> Alcotest.fail "server killed by a signal"

let body_of id rs =
  match List.find_opt (fun r -> r.P.rs_id = id) rs with
  | Some r -> r.P.rs_body
  | None -> Alcotest.failf "no response for id %d" id

let cache_of = function
  | P.R_rewrite r -> r.P.rr_cache
  | P.R_error e -> Alcotest.failf "expected rewrite, got error %d: %s" e.code e.msg
  | _ -> Alcotest.fail "expected a rewrite reply"

let err_code = function
  | P.R_error e -> e.code
  | _ -> Alcotest.fail "expected an error reply"

(* --- server semantics -------------------------------------------------------- *)

let test_server_miss_hit_identity () =
  with_socket_server { (test_opts ()) with Serve.Server.shards = 3 }
  @@ fun c pid ->
  ok (Serve.Client.ping c);
  let r1 =
    ok (Serve.Client.rewrite c ~want_image:true ~prog:"fact"
          ~config:"rop0.25" ~seed:1 ())
  in
  Alcotest.(check bool) "first request misses" true (r1.P.rr_cache = P.Miss);
  let r2 =
    ok (Serve.Client.rewrite c ~want_image:true ~prog:"fact"
          ~config:"rop0.25" ~seed:1 ())
  in
  Alcotest.(check bool) "repeat hits" true (r2.P.rr_cache = P.Hit);
  Alcotest.(check string) "hit serves identical bytes"
    (Option.get r1.P.rr_image) (Option.get r2.P.rr_image);
  (* the acceptance property: served output is byte-identical to the cold
     one-shot CLI path *)
  let a = ok (O.one_shot (spec "fact" "rop0.25" 1)) in
  Alcotest.(check string) "served = one-shot bytes" a.O.a_image
    (Option.get r1.P.rr_image);
  Alcotest.(check string) "served = one-shot digest" a.O.a_image_digest
    r1.P.rr_image_digest;
  (* digest-only addressing probes the cache without rebuilding *)
  (match
     Serve.Client.call c
       (P.Rewrite
          { P.q_prog = None; q_digest = Some a.O.a_digest;
            q_config = "rop0.25"; q_seed = 1; q_want_image = false })
   with
   | Ok (P.R_rewrite r) ->
     Alcotest.(check bool) "digest probe hits" true (r.P.rr_cache = P.Hit)
   | Ok _ | Error _ -> Alcotest.fail "digest probe failed");
  (match
     Serve.Client.call c
       (P.Rewrite
          { P.q_prog = None; q_digest = Some (String.make 32 '0');
            q_config = "rop0.25"; q_seed = 1; q_want_image = false })
   with
   | Ok (P.R_error e) ->
     Alcotest.(check int) "unknown digest is 404" 404 e.code
   | Ok _ | Error _ -> Alcotest.fail "unknown digest must 404");
  (match Serve.Client.rewrite c ~prog:"no-such" ~config:"rop0.25" ~seed:1 () with
   | Error m ->
     Alcotest.(check bool) "unknown program is 404" true
       (String.length m > 4 && String.sub m 0 4 = "404:")
   | Ok _ -> Alcotest.fail "unknown program must 404");
  (match Serve.Client.rewrite c ~prog:"fact" ~config:"rop9" ~seed:1 () with
   | Error m ->
     Alcotest.(check bool) "bad config is 400" true
       (String.length m > 4 && String.sub m 0 4 = "400:")
   | Ok _ -> Alcotest.fail "bad config must 400");
  let st = ok (Serve.Client.stats c) in
  Alcotest.(check int) "stats: requests" 6 st.P.st_requests;
  Alcotest.(check int) "stats: hits" 2 st.P.st_hits;
  Alcotest.(check int) "stats: misses" 1 st.P.st_misses;
  Alcotest.(check int) "stats: errors" 3 st.P.st_errors;
  Alcotest.(check int) "stats: one cache entry" 1 st.P.st_cache_entries;
  Alcotest.(check bool) "stats: cache holds bytes" true (st.P.st_cache_bytes > 0);
  ok (Serve.Client.shutdown c);
  expect_exit0 pid;
  Serve.Client.close c

let test_server_coalescing () =
  with_pair_server (test_opts ()) @@ fun fd pid ->
  (* three identical in-flight keys in one batch: one compute, first waiter
     Miss, the rest Coalesced with the same artifact *)
  send_batch fd
    [ rw ~id:1 ~seed:7 ~want:true ~prog:"fact" "rop0.25";
      rw ~id:2 ~seed:7 ~want:true ~prog:"fact" "rop0.25";
      rw ~id:3 ~seed:7 ~want:true ~prog:"fact" "rop0.25" ];
  let rs = recv_n fd 3 in
  Alcotest.(check bool) "first waiter is the miss" true
    (cache_of (body_of 1 rs) = P.Miss);
  Alcotest.(check bool) "second coalesces" true
    (cache_of (body_of 2 rs) = P.Coalesced);
  Alcotest.(check bool) "third coalesces" true
    (cache_of (body_of 3 rs) = P.Coalesced);
  let dig = function
    | P.R_rewrite r -> r.P.rr_image_digest
    | _ -> Alcotest.fail "expected rewrite"
  in
  Alcotest.(check string) "coalesced waiters get the same artifact"
    (dig (body_of 1 rs)) (dig (body_of 2 rs));
  Alcotest.(check string) "all three agree"
    (dig (body_of 1 rs)) (dig (body_of 3 rs));
  (* a later request on the now-cached key is a plain hit *)
  send_batch fd [ rw ~id:4 ~seed:7 ~prog:"fact" "rop0.25" ];
  Alcotest.(check bool) "then it is cached" true
    (cache_of (body_of 4 (recv_n fd 1)) = P.Hit);
  send_batch fd [ { P.rq_id = 5; rq_body = P.Shutdown } ];
  (match body_of 5 (recv_n fd 1) with
   | P.R_bye -> ()
   | _ -> Alcotest.fail "expected bye");
  expect_eof fd;
  expect_exit0 pid

let test_server_shed () =
  with_pair_server { (test_opts ()) with Serve.Server.max_queue = 1 }
  @@ fun fd pid ->
  (* three distinct keys against a queue of one: the first is accepted, the
     overflow is shed immediately with 429 — and the server neither hangs
     nor drops the accepted request *)
  send_batch fd
    [ rw ~id:1 ~seed:1 ~prog:"fact" "rop0";
      rw ~id:2 ~seed:2 ~prog:"fact" "rop0";
      rw ~id:3 ~seed:3 ~prog:"fact" "rop0" ];
  let rs = recv_n fd 3 in
  Alcotest.(check bool) "accepted request completes" true
    (cache_of (body_of 1 rs) = P.Miss);
  Alcotest.(check int) "second is shed" 429 (err_code (body_of 2 rs));
  Alcotest.(check int) "third is shed" 429 (err_code (body_of 3 rs));
  (* shedding is back-pressure, not a failure: the connection still serves *)
  send_batch fd [ { P.rq_id = 4; rq_body = P.Ping } ];
  (match body_of 4 (recv_n fd 1) with
   | P.R_pong -> ()
   | _ -> Alcotest.fail "expected pong");
  let st =
    send_batch fd [ { P.rq_id = 5; rq_body = P.Stats } ];
    match body_of 5 (recv_n fd 1) with
    | P.R_stats s -> s
    | _ -> Alcotest.fail "expected stats"
  in
  Alcotest.(check int) "stats count the shed pair" 2 st.P.st_shed;
  Unix.close fd;
  expect_exit0 pid

let test_server_deadline () =
  let dir = tmpdir () in
  (* warm a cache with one artifact under a normal server... *)
  with_pair_server { (test_opts ()) with Serve.Server.cache_dir = dir }
    (fun fd pid ->
       send_batch fd [ rw ~id:1 ~seed:1 ~prog:"fact" "rop0" ];
       Alcotest.(check bool) "precompute misses" true
         (cache_of (body_of 1 (recv_n fd 1)) = P.Miss);
       Unix.close fd;
       expect_exit0 pid);
  (* ...then serve from the same cache with an already-expired deadline:
     every queued compute is answered 504 before dispatch, but cache hits
     never enter the queue, so the precomputed key still serves *)
  with_pair_server
    { (test_opts ()) with
      Serve.Server.cache_dir = dir; deadline_ms = Some (-1.0) }
    (fun fd pid ->
       send_batch fd
         [ rw ~id:1 ~seed:1 ~prog:"fact" "rop0";     (* cached: hit *)
           rw ~id:2 ~seed:2 ~prog:"fact" "rop0" ];   (* queued: expires *)
       let rs = recv_n fd 2 in
       Alcotest.(check bool) "hit bypasses the deadline" true
         (cache_of (body_of 1 rs) = P.Hit);
       Alcotest.(check int) "queued request expires with 504" 504
         (err_code (body_of 2 rs));
       send_batch fd [ { P.rq_id = 3; rq_body = P.Stats } ];
       (match body_of 3 (recv_n fd 1) with
        | P.R_stats s ->
          Alcotest.(check int) "stats count the expiry" 1 s.P.st_expired
        | _ -> Alcotest.fail "expected stats");
       Unix.close fd;
       expect_exit0 pid)

let test_server_drain_on_shutdown () =
  with_pair_server (test_opts ()) @@ fun fd pid ->
  (* work queued behind a shutdown verb in the same batch must still
     complete and flush: drain means "stop accepting", never "drop" *)
  send_batch fd
    [ rw ~id:1 ~seed:21 ~prog:"fact" "rop0.25";
      rw ~id:2 ~seed:22 ~prog:"fact" "rop0.25";
      { P.rq_id = 3; rq_body = P.Shutdown } ];
  let rs = recv_n fd 3 in
  Alcotest.(check bool) "queued request 1 completed during drain" true
    (cache_of (body_of 1 rs) = P.Miss);
  Alcotest.(check bool) "queued request 2 completed during drain" true
    (cache_of (body_of 2 rs) = P.Miss);
  (match body_of 3 rs with
   | P.R_bye -> ()
   | _ -> Alcotest.fail "expected bye");
  expect_eof fd;
  expect_exit0 pid

let test_server_sigterm_drain () =
  with_pair_server (test_opts ()) @@ fun fd pid ->
  send_batch fd [ rw ~id:1 ~seed:1 ~want:true ~prog:"fact" "rop0.5" ];
  let r1 = body_of 1 (recv_n fd 1) in
  Alcotest.(check bool) "request served" true (cache_of r1 = P.Miss);
  (* SIGTERM with replies flushed and nothing queued: clean exit 0, EOF at
     a frame boundary on the client *)
  Unix.kill pid Sys.sigterm;
  expect_eof fd;
  expect_exit0 pid

let test_server_protocol_errors () =
  with_pair_server (test_opts ()) @@ fun fd pid ->
  (* an unparseable frame is answered (id 0) but the connection survives *)
  P.write_all fd (P.frame "{this is not json");
  Alcotest.(check int) "malformed JSON answered with 400" 400
    (err_code (body_of 0 (recv_n fd 1)));
  send_batch fd [ { P.rq_id = 2; rq_body = P.Ping } ];
  (match body_of 2 (recv_n fd 1) with
   | P.R_pong -> ()
   | _ -> Alcotest.fail "connection should survive bad JSON");
  (* an oversized length field is unframeable: answered once, then cut *)
  let len = P.max_frame + 1 in
  P.write_all fd
    (String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff)));
  Alcotest.(check int) "oversized frame answered with 400" 400
    (err_code (body_of 0 (recv_n fd 1)));
  expect_eof fd;
  expect_exit0 pid

(* A reply past [max_frame] cannot be framed: its waiter gets a 500, and the
   daemon keeps serving.  The cache is seeded with an artifact whose image
   alone fills a frame, then probed by digest. *)
let test_server_oversized_reply () =
  let opts = test_opts () in
  let digest = String.make 32 'e' in
  let key = O.key ~digest ~config:"rop0.25" ~seed:1 in
  Serve.Shardcache.store
    (Serve.Shardcache.create ~shards:opts.Serve.Server.shards
       ~dir:opts.Serve.Server.cache_dir ())
    key
    { O.a_prog = "huge"; a_digest = digest; a_key = key;
      a_image = String.make P.max_frame 'x';
      a_image_digest = String.make 32 'f'; a_funcs = []; a_uses = 0;
      a_uniq = 0 };
  with_pair_server opts @@ fun fd pid ->
  send_batch fd
    [ rw ~id:1 ~digest ~want:true "rop0.25";
      rw ~id:2 ~digest "rop0.25";
      { P.rq_id = 3; rq_body = P.Ping } ];
  let rs = recv_n fd 3 in
  Alcotest.(check int) "oversized reply is a 500" 500 (err_code (body_of 1 rs));
  Alcotest.(check bool) "image-less reply still served" true
    (cache_of (body_of 2 rs) = P.Hit);
  (match body_of 3 rs with
   | P.R_pong -> ()
   | _ -> Alcotest.fail "daemon must keep serving after an oversized reply");
  send_batch fd [ { P.rq_id = 4; rq_body = P.Shutdown } ];
  ignore (recv_n fd 1);
  expect_eof fd;
  expect_exit0 pid

let () =
  Alcotest.run "serve"
    [ ("protocol",
       [ Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
         Alcotest.test_case "response round-trip" `Quick
           test_response_roundtrip;
         Alcotest.test_case "image attachment" `Quick test_attachment;
         Alcotest.test_case "blocking frames" `Quick test_frame_blocking;
         Alcotest.test_case "truncated frames" `Quick test_frame_truncated;
         Alcotest.test_case "oversized frames" `Quick test_frame_oversized;
         Alcotest.test_case "incremental deframer" `Quick
           test_deframer_incremental;
         Alcotest.test_case "decoder fuzz" `Quick test_decode_fuzz;
         QCheck_alcotest.to_alcotest prop_frame_writer;
         QCheck_alcotest.to_alcotest prop_response_inverse;
         Alcotest.test_case "frame writer refuses past max_frame" `Quick
           test_frame_writer_oversized;
         Alcotest.test_case "frame writer allocation fence" `Quick
           test_frame_writer_alloc;
         QCheck_alcotest.to_alcotest prop_feed_chunkings;
         Alcotest.test_case "deframer: every split" `Quick
           test_feed_every_split;
         Alcotest.test_case "deframer: long frames" `Quick
           test_feed_long_frames ]);
      ("oneshot",
       [ Alcotest.test_case "config naming" `Quick test_config_names;
         Alcotest.test_case "deterministic rewrites" `Quick
           test_oneshot_deterministic;
         Alcotest.test_case "image round-trip" `Quick test_image_roundtrip;
         Alcotest.test_case "golden byte identity" `Quick test_oneshot_golden ]);
      ("server",
       [ Alcotest.test_case "miss, hit, byte identity" `Quick
           test_server_miss_hit_identity;
         Alcotest.test_case "duplicate coalescing" `Quick
           test_server_coalescing;
         Alcotest.test_case "queue-full shed" `Quick test_server_shed;
         Alcotest.test_case "queue deadline" `Quick test_server_deadline;
         Alcotest.test_case "drain on shutdown verb" `Quick
           test_server_drain_on_shutdown;
         Alcotest.test_case "drain on SIGTERM" `Quick
           test_server_sigterm_drain;
         Alcotest.test_case "protocol errors" `Quick
           test_server_protocol_errors;
         Alcotest.test_case "oversized reply refused" `Quick
           test_server_oversized_reply ]) ]

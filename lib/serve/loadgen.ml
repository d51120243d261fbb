(* Corpus load generator: replays a (program x config x seed) grid against
   a running daemon from one process multiplexing N connections.

   Two drive modes:
   - closed loop: each connection keeps exactly one request outstanding and
     fires the next on completion — measures sustainable throughput;
   - fixed rate: requests go out on a global schedule (round-robin over the
     connections, pipelined) regardless of completions — measures behaviour
     under offered load, including how much the server sheds.

   Shed (429) and deadline (504) responses are counted, not retried: the
   point of the measurement is the admission-control behaviour itself. *)

type spec = { g_prog : string; g_config : string; g_seed : int }

type mode = Closed | Rate of float   (* requests/second *)

type result = {
  r_wall_s : float;
  r_sent : int;
  r_completed : int;           (* rewrite replies received *)
  r_hits : int;
  r_misses : int;
  r_coalesced : int;
  r_shed : int;                (* 429 *)
  r_expired : int;             (* 504 *)
  r_errors : int;              (* other error responses *)
  r_rps : float;               (* completed / wall *)
  r_p50_ms : float;
  r_p90_ms : float;
  r_p99_ms : float;
  r_hit_rate : float;          (* percent of completions served from cache *)
}

type cstate = {
  l_fd : Unix.file_descr;
  l_defr : Protocol.deframer;
  l_out : Protocol.outbox;
  mutable l_inflight : (int, float) Hashtbl.t;   (* id -> send time *)
  mutable l_eof : bool;
}

let run ~socket ~conns ?(want_image = false) ?(mode = Closed)
    ?(duration_s = 5.0) ?(max_wall_s = 600.0) ~specs ~rounds () :
  (result, string) Stdlib.result =
  if specs = [] then Error "empty spec list"
  else if conns < 1 then Error "need at least one connection"
  else begin
    ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
    let connect_one () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () ->
        Unix.set_nonblock fd;
        Ok { l_fd = fd; l_defr = Protocol.deframer (); l_out = Protocol.outbox ();
             l_inflight = Hashtbl.create 8; l_eof = false }
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "connect %s: %s" socket (Unix.error_message e))
    in
    let rec mk acc n =
      if n = 0 then Ok (List.rev acc)
      else
        match connect_one () with
        | Ok c -> mk (c :: acc) (n - 1)
        | Error m ->
          List.iter (fun c -> try Unix.close c.l_fd with _ -> ()) acc;
          Error m
    in
    match mk [] conns with
    | Error m -> Error m
    | Ok cs ->
      let cs = Array.of_list cs in
      let next_id = ref 1 in
      let sent = ref 0 and completed = ref 0 in
      let hits = ref 0 and misses = ref 0 and coalesced = ref 0 in
      let shed = ref 0 and expired = ref 0 and errors = ref 0 in
      let lats = ref [] in
      let closed_todo =
        ref
          (List.concat
             (List.init rounds (fun _ -> specs)))
      in
      let cycle = ref [] in
      let next_spec_rate () =
        (match !cycle with [] -> cycle := specs | _ -> ());
        match !cycle with
        | s :: rest -> cycle := rest; s
        | [] -> assert false
      in
      let t0 = Unix.gettimeofday () in
      let t_end = t0 +. duration_s in
      let next_send = ref t0 in
      let rr = ref 0 in
      let send c (s : spec) =
        let id = !next_id in
        next_id := id + 1;
        let req =
          { Protocol.rq_id = id;
            rq_body =
              Protocol.Rewrite
                { Protocol.q_prog = Some s.g_prog; q_digest = None;
                  q_config = s.g_config; q_seed = s.g_seed;
                  q_want_image = want_image } }
        in
        Protocol.enqueue c.l_out (Protocol.frame (Protocol.encode_request req));
        Hashtbl.replace c.l_inflight id (Unix.gettimeofday ());
        incr sent
      in
      let on_response c payload =
        match Protocol.decode_response payload with
        | Error _ -> incr errors
        | Ok rs ->
          let take () =
            match Hashtbl.find_opt c.l_inflight rs.Protocol.rs_id with
            | None -> None
            | Some t_send ->
              Hashtbl.remove c.l_inflight rs.Protocol.rs_id;
              Some t_send
          in
          (match rs.Protocol.rs_body with
           | Protocol.R_rewrite r ->
             (match take () with
              | None -> ()
              | Some t_send ->
                incr completed;
                lats := (Unix.gettimeofday () -. t_send) *. 1000.0 :: !lats;
                (match r.Protocol.rr_cache with
                 | Protocol.Hit -> incr hits
                 | Protocol.Miss -> incr misses
                 | Protocol.Coalesced -> incr coalesced))
           | Protocol.R_error e ->
             ignore (take ());
             if e.code = 429 then incr shed
             else if e.code = 504 then incr expired
             else incr errors
           | _ -> ())
      in
      let flush c =
        if (not c.l_eof) && not (Protocol.flush_outbox c.l_out c.l_fd) then
          c.l_eof <- true
      in
      let read c =
        if (not c.l_eof)
        && Protocol.read_ready c.l_defr c.l_fd ~on_frame:(on_response c) <> Ok ()
        then c.l_eof <- true
      in
      let inflight_total () =
        Array.fold_left (fun acc c -> acc + Hashtbl.length c.l_inflight) 0 cs
      in
      let alive () = Array.exists (fun c -> not c.l_eof) cs in
      let finished now =
        match mode with
        | Closed -> !closed_todo = [] && inflight_total () = 0
        | Rate _ -> now >= t_end && inflight_total () = 0
      in
      let deadline = t0 +. max_wall_s in
      let err = ref None in
      let rec loop () =
        let now = Unix.gettimeofday () in
        if now > deadline then err := Some "load generator timed out"
        else if not (alive ()) && inflight_total () > 0 then
          err := Some "server closed connections with requests in flight"
        else if finished now then ()
        else begin
          (* issue new work *)
          (match mode with
           | Closed ->
             Array.iter
               (fun c ->
                  if (not c.l_eof) && Hashtbl.length c.l_inflight = 0 then
                    match !closed_todo with
                    | [] -> ()
                    | s :: rest -> closed_todo := rest; send c s)
               cs
           | Rate r ->
             let dt = 1.0 /. Float.max 0.001 r in
             while !next_send <= now && now < t_end do
               let c = cs.(!rr mod Array.length cs) in
               incr rr;
               if not c.l_eof then send c (next_spec_rate ());
               next_send := !next_send +. dt
             done);
          let rfds =
            Array.to_list cs
            |> List.filter_map (fun c -> if c.l_eof then None else Some c.l_fd)
          in
          let wfds =
            Array.to_list cs
            |> List.filter_map (fun c ->
                if Protocol.has_output c.l_out && not c.l_eof then Some c.l_fd
                else None)
          in
          let timeout =
            match mode with
            | Rate _ -> Float.max 0.0 (Float.min 0.05 (!next_send -. now))
            | Closed -> 0.25
          in
          (match Unix.select rfds wfds [] timeout with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           | ready_r, ready_w, _ ->
             Array.iter
               (fun c -> if List.mem c.l_fd ready_w then flush c)
               cs;
             Array.iter
               (fun c -> if List.mem c.l_fd ready_r then read c)
               cs);
          if !err = None then loop ()
        end
      in
      loop ();
      let wall = Unix.gettimeofday () -. t0 in
      Array.iter (fun c -> try Unix.close c.l_fd with _ -> ()) cs;
      match !err with
      | Some m -> Error m
      | None ->
        let sorted = Array.of_list !lats in
        Array.sort compare sorted;
        Ok { r_wall_s = wall;
             r_sent = !sent;
             r_completed = !completed;
             r_hits = !hits;
             r_misses = !misses;
             r_coalesced = !coalesced;
             r_shed = !shed;
             r_expired = !expired;
             r_errors = !errors;
             r_rps = float_of_int !completed /. Float.max 1e-9 wall;
             r_p50_ms = Obs.Metrics.percentile sorted 50.0;
             r_p90_ms = Obs.Metrics.percentile sorted 90.0;
             r_p99_ms = Obs.Metrics.percentile sorted 99.0;
             r_hit_rate =
               (if !completed = 0 then 0.0
                else 100.0 *. float_of_int !hits /. float_of_int !completed) }
  end

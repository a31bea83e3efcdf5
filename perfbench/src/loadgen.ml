(* The benchmark's load generator: one thread, at most two connections,
   one session per connection, multiplexed with select.

   A phase runs [sessions] fresh sessions of exactly [session_len]
   requests back to back on every connection. Each session connects,
   sends its hello, streams its requests, half-closes, and waits for the
   server's done record before the connection opens the next one.

   - Closed loop: a connection keeps at most [window] requests in flight;
     latency is timed from the write.
   - Open loop: request [g] of connection [c] (counted across the
     connection's sessions) is due at {!Perfbench_kit.Pb_schedule.due};
     latency is timed from that due time, and the generator's own
     lateness (write time minus due time) is recorded separately.

   Every decision line is checked on receipt against the in-process
   replay of the same stream ({!Perfbench_kit.Pb_compare}); a mismatch,
   a refused handshake, a dropped connection or a wrong done record is a
   failure. *)

open Perfbench_kit

type mode = Closed of { window : int } | Open of Pb_schedule.t

let describe_mode = function
  | Closed { window } -> Printf.sprintf "closed loop, window %d per connection" window
  | Open s -> Printf.sprintf "open loop, %.1f req/s aggregate" (Pb_schedule.rate s)

type config = {
  socket : string;
  mode : mode;
  sessions : int;  (** per connection *)
  session_len : int;
  requests : string array array;  (** per connection: request lines *)
  expected : string array array;  (** per connection: canonical decisions *)
  new_session_id : unit -> string;
}

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the log *)
  elapsed : float;  (** first send to last response, seconds *)
  latency : float array;  (** seconds, one per answered request *)
  late : float array;  (** open loop: write time minus due time *)
  cpu_share : float;  (** generator CPU seconds per wall second *)
  backlog_grew : bool;
  session_ids : (string * int) list;  (** (id, connection), served in full *)
}

type state = Idle | Hello | Stream | Drain | Finished

type conn = {
  c : int;
  mutable fd : Unix.file_descr option;
  mutable st : state;
  mutable started : int;  (** sessions opened *)
  mutable sid : string;
  mutable sent : int;  (** requests written in this session *)
  mutable recv : int;  (** decisions received in this session *)
  mutable got_done : bool;
  out : Buffer.t;  (** written but not yet accepted by the socket *)
  send_t : float array;  (** closed loop: write time per request *)
  rd : Util.line_reader option ref;
}

let run cfg =
  let nconn = Array.length cfg.requests in
  let l = cfg.session_len in
  let total = nconn * cfg.sessions * l in
  let lat = Array.make total nan in
  let late = Array.make total nan in
  let n_lat = ref 0 and n_late = ref 0 in
  let failed = ref 0 and failures = ref [] in
  let ok_sessions = ref [] in
  let fail_msg c msg =
    if List.length !failures < 5 then
      failures := Printf.sprintf "conn %d: %s" c msg :: !failures
  in
  let conns =
    Array.init nconn (fun c ->
        { c; fd = None; st = Idle; started = 0; sid = ""; sent = 0; recv = 0;
          got_done = false; out = Buffer.create 65536;
          send_t = Array.make l 0.0; rd = ref None })
  in
  let cpu0 = Util.cpu_seconds () in
  let t0 = Util.now () in
  let last_recv = ref t0 in
  (* Backlog samples (time, requests due but unanswered) for the growth
     test of open-loop phases. *)
  let backlog = ref [] in
  let answered = Array.make nconn 0 in
  let close_conn k =
    (match k.fd with
    | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    k.fd <- None;
    k.rd := None;
    Buffer.clear k.out;
    k.st <- Idle
  in
  (* A session that ends early loses whatever it had not answered. *)
  let abort k msg =
    fail_msg k.c (Printf.sprintf "session %s: %s" k.sid msg);
    let lost = l - k.recv in
    failed := !failed + lost;
    answered.(k.c) <- answered.(k.c) + lost;
    close_conn k
  in
  let open_session k =
    k.started <- k.started + 1;
    k.sid <- cfg.new_session_id ();
    k.sent <- 0;
    k.recv <- 0;
    k.got_done <- false;
    match Util.connect_unix ~timeout:5.0 cfg.socket with
    | fd ->
        Unix.set_nonblock fd;
        k.fd <- Some fd;
        k.rd := Some (Util.line_reader fd);
        Buffer.add_string k.out (Printf.sprintf "{\"session\":%s}\n" (Util.json_str k.sid));
        k.st <- Hello
    | exception e ->
        k.sent <- 0;
        abort k ("connect: " ^ Printexc.to_string e)
  in
  let due_abs k g =
    match cfg.mode with
    | Open s -> t0 +. Pb_schedule.due s ~conn:k.c ~index:g
    | Closed _ -> 0.0
  in
  let on_line now k line =
    match k.st with
    | Hello ->
        if String.length line >= 11 && String.sub line 0 11 = "{\"ok\":true," then
          k.st <- Stream
        else abort k ("handshake refused: " ^ line)
    | Stream | Drain ->
        if String.length line >= 8 && String.sub line 0 8 = "{\"done\":" then begin
          if k.recv = l
             && Scanf.sscanf_opt line "{\"done\":true,\"served\":%d," Fun.id = Some l
          then k.got_done <- true
          else abort k ("early or wrong done record: " ^ line)
        end
        else if k.recv >= l then abort k ("extra line: " ^ line)
        else begin
          let g = ((k.started - 1) * l) + k.recv in
          let ok = Pb_compare.matches ~expected:cfg.expected.(k.c).(k.recv) line in
          let t_ref =
            match cfg.mode with Open _ -> due_abs k g | Closed _ -> k.send_t.(k.recv)
          in
          lat.(!n_lat) <- now -. t_ref;
          incr n_lat;
          k.recv <- k.recv + 1;
          answered.(k.c) <- answered.(k.c) + 1;
          last_recv := now;
          if not ok then begin
            incr failed;
            fail_msg k.c
              (Printf.sprintf "session %s request %d: decision differs from replay: %s"
                 k.sid (k.recv - 1) line)
          end
        end
    | Idle | Finished -> ()
  in
  let enqueue now k =
    let allowed =
      match cfg.mode with
      | Closed { window } -> min (l - k.sent) (window - (k.sent - k.recv))
      | Open s ->
          let due = Pb_schedule.due_by s ~conn:k.c ~elapsed:(now -. t0) in
          min (l - k.sent) (due - ((k.started - 1) * l) - k.sent)
    in
    for _ = 1 to allowed do
      (match cfg.mode with
      | Open _ ->
          late.(!n_late) <- now -. due_abs k (((k.started - 1) * l) + k.sent);
          incr n_late
      | Closed _ -> k.send_t.(k.sent) <- now);
      Buffer.add_string k.out cfg.requests.(k.c).(k.sent);
      Buffer.add_char k.out '\n';
      k.sent <- k.sent + 1
    done
  in
  let flush k =
    match k.fd with
    | None -> ()
    | Some fd ->
        let len = Buffer.length k.out in
        if len > 0 then begin
          let pending = Buffer.contents k.out in
          match Unix.write_substring fd pending 0 len with
          | n ->
              Buffer.clear k.out;
              if n < len then Buffer.add_substring k.out pending n (len - n)
          | exception Unix.Unix_error ((Unix.EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
          | exception Unix.Unix_error (e, _, _) -> abort k ("write: " ^ Unix.error_message e)
        end;
        match k.fd with
        | Some fd when k.st = Stream && k.sent = l && Buffer.length k.out = 0 ->
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
            k.st <- Drain
        | _ -> ()
  in
  let read k =
    match (k.fd, !(k.rd)) with
    | Some fd, Some r -> (
        match Unix.read fd r.Util.chunk 0 (Bytes.length r.Util.chunk) with
        | 0 ->
            if k.got_done then begin
              ok_sessions := (k.sid, k.c) :: !ok_sessions;
              close_conn k
            end
            else abort k "connection closed before the done record"
        | n ->
            let now = Util.now () in
            Util.feed r n;
            while k.fd <> None && not (Queue.is_empty r.Util.lines) do
              on_line now k (Queue.pop r.Util.lines)
            done
        | exception Unix.Unix_error ((Unix.EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        | exception Unix.Unix_error (e, _, _) -> abort k ("read: " ^ Unix.error_message e))
    | _ -> ()
  in
  let hard_deadline = t0 +. 120.0 in
  let active () = Array.exists (fun k -> k.st <> Finished) conns in
  while active () do
    let now = Util.now () in
    if now > hard_deadline then
      Array.iter (fun k -> if k.fd <> None then abort k "phase deadline exceeded") conns;
    Array.iter
      (fun k ->
        if k.st = Idle then
          if k.started < cfg.sessions && now <= hard_deadline then open_session k
          else k.st <- Finished)
      conns;
    let now = Util.now () in
    Array.iter (fun k -> if k.st = Stream then enqueue now k) conns;
    Array.iter flush conns;
    (match cfg.mode with
    | Open s ->
        let due_total =
          Array.fold_left
            (fun acc k ->
              acc + min (cfg.sessions * l) (Pb_schedule.due_by s ~conn:k.c ~elapsed:(now -. t0)))
            0 conns
        in
        let ans = Array.fold_left ( + ) 0 answered in
        backlog := (now -. t0, due_total - ans) :: !backlog
    | Closed _ -> ());
    let reads = Array.to_list conns |> List.filter_map (fun k -> k.fd) in
    let writes =
      Array.to_list conns
      |> List.filter_map (fun k ->
             if Buffer.length k.out > 0 then k.fd else None)
    in
    let timeout =
      match cfg.mode with
      | Closed _ -> 0.05
      | Open s ->
          Array.fold_left
            (fun acc k ->
              if k.st = Stream && k.sent < l then
                let g = ((k.started - 1) * l) + k.sent in
                Float.min acc (t0 +. Pb_schedule.due s ~conn:k.c ~index:g -. Util.now ())
              else acc)
            0.05 conns
          |> Float.max 0.0
    in
    if reads <> [] || writes <> [] || timeout > 0.0 then begin
      match Unix.select reads writes [] timeout with
      | r, _, _ ->
          Array.iter
            (fun k ->
              match k.fd with Some fd when List.memq fd r -> read k | _ -> ())
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  let elapsed = !last_recv -. t0 in
  let cpu = Util.cpu_seconds () -. cpu0 in
  let wall = Util.now () -. t0 in
  (* Backlog growth: the mean backlog over the last third of the send
     schedule against the middle third. A server that keeps up holds a
     bounded backlog, so the two agree up to the requests that pile up
     during a session handshake (allowed for as 5 ms of arrivals); one
     that falls behind by a constant rate accumulates a linear backlog,
     whose last-third mean exceeds its middle-third mean by two thirds of
     the latter. *)
  let backlog_grew =
    match cfg.mode with
    | Closed _ -> false
    | Open s ->
        let span = float_of_int (cfg.sessions * l * nconn) /. Pb_schedule.rate s in
        let mean lo hi =
          let xs =
            List.filter_map
              (fun (t, b) -> if t >= lo && t < hi then Some (float_of_int b) else None)
              !backlog
          in
          if xs = [] then 0.0 else Pb_stats.mean (Array.of_list xs)
        in
        let mid = mean (span /. 3.0) (2.0 *. span /. 3.0) in
        let last = mean (2.0 *. span /. 3.0) span in
        last -. mid > Float.max (Float.max 64.0 (0.005 *. Pb_schedule.rate s)) (0.5 *. mid)
  in
  {
    attempted = total;
    failed = !failed;
    failures = List.rev !failures;
    elapsed;
    latency = Array.sub lat 0 !n_lat;
    late = Array.sub late 0 !n_late;
    cpu_share = (if wall > 0.0 then cpu /. wall else 0.0);
    backlog_grew;
    session_ids = List.rev !ok_sessions;
  }

(* The serve-* workloads: the real [omflp serve --listen] binary under
   test, driven by {!Loadgen} over a Unix socket, every decision checked
   against an in-process [Session] replay of the same stream. *)

open Omflp_instance
open Perfbench_kit

let connections = 2
let window = 32  (* closed-loop in-flight requests per connection *)
let lat_limit_ms = 100.0  (* p99 limit of the sustained-rate climb *)
let algo = "PD-OMFLP-FAST"
let socket = "sut.sock"
let env_file = "env.inst"
let checkpoint_root = "checkpoints"

type inputs = {
  spec : Workloads.serve_spec;
  seed : int;
  env : Instance.t;  (** as the server loads it *)
  streams : Request.t array array;
  lines : string array array;  (** request lines per connection *)
  expected : string array array;  (** canonical replay decisions *)
}

let request_line (r : Request.t) =
  Printf.sprintf "{\"site\":%d,\"demand\":[%s]}" r.Request.site
    (String.concat "," (List.map string_of_int (Omflp_commodity.Cset.elements r.demand)))

let find_algo () =
  match Omflp_core.Registry.find algo with
  | Ok a -> a
  | Error e -> failwith (Omflp_core.Registry.unknown_algo_message e)

(* The decisions a fresh session emits for [stream], canonical form. *)
let replay env ~seed stream =
  let s = Omflp_serve.Session.create ~algo:(find_algo ()) ~seed (Instance.env env) in
  Array.map (fun r -> Omflp_serve.Wire.decision_to_json (Omflp_serve.Session.handle s r)) stream

let prepare spec ~seed =
  let env0, streams = Workloads.serve_inputs spec ~seed ~connections in
  Serial.save_file env_file env0;
  let env = Serial.load_file env_file in
  let lines = Array.map (Array.map request_line) streams in
  let expected = Array.map (replay env ~seed) streams in
  { spec; seed; env; streams; lines; expected }

(* ---------- the server under test ---------- *)

let spawn_server ~omflp inp =
  let args =
    [ "serve"; "--listen"; socket; "--env"; env_file; "--algo"; algo;
      "--workers"; "1"; "--seed"; string_of_int inp.seed ]
    @ if inp.spec.Workloads.checkpoint then [ "--checkpoint"; checkpoint_root ] else []
  in
  (try Sys.remove socket with Sys_error _ -> ());
  Util.spawn ~log:"server.log" omflp args

(* Spawn to the first accepted handshake: the server must load the env,
   bind, accept, and open a session. *)
let setup_once ~omflp inp ~id =
  let t0 = Util.now () in
  let child = spawn_server ~omflp inp in
  match Util.connect_unix ~timeout:30.0 socket with
  | exception e ->
      Util.stop child;
      raise e
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Util.send_line fd (Printf.sprintf "{\"session\":%s}" (Util.json_str id));
          let ack = Util.read_line ~timeout:30.0 (Util.line_reader fd) in
          let dt = Util.now () -. t0 in
          match ack with
          | Some l when String.length l > 11 && String.sub l 0 11 = "{\"ok\":true," ->
              (child, dt)
          | _ ->
              Util.stop child;
              Util.fail "setup handshake refused: %s" (Option.value ack ~default:"EOF"))

let setup_reps = 7

(* [setup_reps] cold starts; the last server stays up for the phases. *)
let setup ~omflp inp =
  let times = Array.make setup_reps 0.0 in
  let rec go k =
    let child, dt = setup_once ~omflp inp ~id:(Printf.sprintf "setup-%d" k) in
    times.(k) <- dt;
    if k + 1 < setup_reps then begin
      Util.stop child;
      go (k + 1)
    end
    else child
  in
  let child = go 0 in
  (child, times)

(* ---------- phases ---------- *)

type counters = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** failure messages, newest first *)
}

let session_counter = ref 0

let new_session_id () =
  incr session_counter;
  Printf.sprintf "s%06d" !session_counter

(* serve-durable: each fully served session's decisions.jsonl must be
   the replay's lines, byte for byte. Checked after every phase; the
   session's directory is then removed, so the run's disk footprint stays
   one phase deep. *)
let check_durable ctr inp sessions =
  List.iter
    (fun (id, c) ->
      let dir = Filename.concat checkpoint_root id in
      let path = Filename.concat dir "decisions.jsonl" in
      let lines = try Util.read_lines path with Sys_error _ -> [||] in
      ctr.attempted <- ctr.attempted + 1;
      (match Pb_compare.first_mismatch ~expected:inp.expected.(c) lines with
      | None -> ()
      | Some i ->
          ctr.failed <- ctr.failed + 1;
          ctr.notes <-
            Printf.sprintf "%s: decisions.jsonl differs from replay at line %d" path i
            :: ctr.notes);
      Util.rm_rf dir)
    sessions

let phase ctr inp ~label ~mode ~sessions =
  let cfg =
    {
      Loadgen.socket;
      mode;
      sessions;
      session_len = inp.spec.Workloads.session_len;
      requests = inp.lines;
      expected = inp.expected;
      new_session_id;
    }
  in
  let r = Loadgen.run cfg in
  ctr.attempted <- ctr.attempted + r.Loadgen.attempted;
  ctr.failed <- ctr.failed + r.Loadgen.failed;
  List.iter (fun f -> ctr.notes <- (label ^ ": " ^ f) :: ctr.notes) r.Loadgen.failures;
  if inp.spec.Workloads.checkpoint then check_durable ctr inp r.Loadgen.session_ids;
  Printf.printf "#   %-22s %s, %d x %d sessions of %d: %d requests in %.3f s%s\n%!"
    label (Loadgen.describe_mode mode) connections sessions inp.spec.session_len
    r.attempted r.elapsed
    (if r.failed > 0 then Printf.sprintf ", %d FAILED" r.failed else "");
  r

(* Sessions per connection so that [rate] req/s lasts about [seconds]. *)
let sessions_for inp ~rate ~seconds =
  let per_conn = rate *. seconds /. float_of_int connections in
  max 1 (int_of_float (Float.round (per_conn /. float_of_int inp.spec.Workloads.session_len)))

let closed = Loadgen.Closed { window }
let open_at rate = Loadgen.Open (Pb_schedule.create ~rate ~connections)

let rps (r : Loadgen.result) =
  float_of_int (Array.length r.Loadgen.latency) /. r.Loadgen.elapsed

let pp_q unit scale (q : Pb_stats.quantile) =
  Printf.sprintf "p%g=%.4f %s (n=%d, %d beyond)" (q.Pb_stats.q *. 100.0)
    (q.Pb_stats.value *. scale) unit q.Pb_stats.n q.Pb_stats.beyond

(* Rates of the sustained-rate search lie on a fixed geometric grid, so a
   result is one of a fixed set of values whatever the run measured. *)
let grid_step = 1.05
let grid_rate k = 50.0 *. (grid_step ** float_of_int k)
let grid_index rate = int_of_float (Float.floor (log (rate /. 50.0) /. log grid_step))

(* One step of the climb: an open-loop probe at [rate] passes when no
   request failed, the probe's p99 is within the workload's limit, and
   the backlog did not grow. *)
let probe ctr inp ~seconds rate =
  let sessions = sessions_for inp ~rate ~seconds in
  let r = phase ctr inp ~label:"sustained probe" ~mode:(open_at rate) ~sessions in
  let p99 =
    if Array.length r.latency = 0 then infinity
    else (Pb_stats.quantile r.latency 0.99).Pb_stats.value *. 1000.0
  in
  let verdict =
    if r.failed > 0 then "requests failed"
    else if p99 > lat_limit_ms then Printf.sprintf "p99 over the %.0f ms limit" lat_limit_ms
    else if r.backlog_grew then "backlog grew"
    else "ok"
  in
  Printf.printf "#     rate %.1f req/s: p99 %.4f ms -> %s\n%!" rate p99 verdict;
  verdict = "ok"

(* Highest grid rate that passes, found by climbing the grid one step
   (5%) at a time from 0.6 of the closed-loop peak. A failing step is
   probed once more before it counts as failed, since a stall of the host
   fails one probe while a rate the server cannot sustain fails both. The
   climb stops at the first failed step; the result is the step below. *)
let sustained ctr inp ~peak ~budget_s =
  let first = grid_index (0.6 *. peak) in
  let last = grid_index (2.0 *. peak) in
  let seconds = budget_s /. 20.0 in
  let passes k = probe ctr inp ~seconds (grid_rate k) || probe ctr inp ~seconds (grid_rate k) in
  let rec climb k best =
    if k > last || not (passes k) then best else climb (k + 1) (grid_rate k)
  in
  climb first 0.0

(* Target length of one latency chunk; chunks are whole sessions, so the
   real length rounds to a session multiple. *)
let lat_chunk_s = 0.5

let run ~omflp ~seconds spec ~seed =
  let ctr = { attempted = 0; failed = 0; notes = [] } in
  let inp = prepare spec ~seed in
  Printf.printf "# workload %s: %d sites, |S|=%d, session length %d, %s, --workers 1%s\n%!"
    spec.Workloads.name (Instance.n_sites inp.env) (Instance.n_commodities inp.env)
    spec.session_len algo
    (if spec.checkpoint then ", checkpoint every 16" else ", no checkpoint");
  let child, setup_times = setup ~omflp inp in
  Fun.protect ~finally:(fun () -> Util.stop child) (fun () ->
      ctr.attempted <- ctr.attempted + setup_reps;
      let setup_s = Pb_stats.median setup_times in
      Printf.printf "#   setup: %s s over %d cold starts\n%!"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)))
        setup_reps;
      (* Warm-up: one closed-loop session per connection, unmeasured
         except for sizing the number of rounds. *)
      let warm = phase ctr inp ~label:"warm-up" ~mode:closed ~sessions:1 in
      let est = rps warm in
      (* Interleaved rounds of one closed-loop chunk (peak) and one
         open-loop chunk at the reference rate (latency), so a slow
         stretch of the machine touches both alike. Every chunk's exact
         quantiles are printed with their sample counts. Throughput and
         p50 are medians over the chunks. The p99 is printed (lowest
         chunk p99, the tail of the run's quietest stretch) but not
         reported as a metric: on a shared host its spread between runs
         exceeds any bound the benchmark may set. *)
      let ref_rate = spec.ref_rate in
      let peak_sessions = spec.peak_sessions in
      let lat_sessions = sessions_for inp ~rate:ref_rate ~seconds:lat_chunk_s in
      let round_s =
        (float_of_int (peak_sessions * connections * spec.session_len) /. est)
        +. (float_of_int (lat_sessions * connections * spec.session_len) /. ref_rate)
      in
      let rounds = max 3 (int_of_float (0.6 *. seconds /. round_s)) in
      let chunks =
        Array.init rounds (fun _ ->
            let p = rps (phase ctr inp ~label:"peak" ~mode:closed ~sessions:peak_sessions) in
            let r = phase ctr inp ~label:"latency" ~mode:(open_at ref_rate) ~sessions:lat_sessions in
            match Pb_stats.quantiles r.latency [ 0.5; 0.99 ] with
            | [ q50; q99 ] ->
                Printf.printf "#     %s, %s\n%!" (pp_q "ms" 1000.0 q50) (pp_q "ms" 1000.0 q99);
                (p, q50.value, q99.value)
            | _ -> assert false)
      in
      let over q f = (Pb_stats.quantile (Array.map f chunks) q).Pb_stats.value in
      let peak_rps = over 0.5 (fun (p, _, _) -> p) in
      let lat_p50_ms = 1000.0 *. over 0.5 (fun (_, a, _) -> a) in
      Printf.printf
        "#   %d rounds: peak (median) %.1f req/s, p50 (median) %.4f ms, p99 (lowest chunk) %.4f ms\n%!"
        rounds peak_rps lat_p50_ms
        (1000.0 *. over 0.0 (fun (_, _, b) -> b));
      Printf.printf "#   sustained-rate search: grid %.0f x %.2f^k req/s, p99 limit %.1f ms\n%!"
        50.0 grid_step lat_limit_ms;
      let sustained_rps = sustained ctr inp ~peak:peak_rps ~budget_s:(0.4 *. seconds) in
      let rss_mb = Util.vm_hwm_mb child.Util.pid in
      Util.stop child;
      ( { Workloads.setup_s; peak_rps; sustained_rps; lat_p50_ms; rss_mb },
        ctr ))

(* The traced run: per-layer metrics, each timed around calls into one
   layer's public functions from the benchmark's own code, on the same
   generated inputs as the workload's untraced run.

   Every probe runs on every workload, so every metric is a measurement:
   serve-layer probes use the workload's env and streams (certify uses
   serve-light's), offline probes use the workload's corpus (serve-*
   skip its slowest LP instance). Which end-to-end metric each layer
   metric speaks for, and on which workload, is listed in the README. *)

open Omflp_instance
open Perfbench_kit
module Session = Omflp_serve.Session
module Wire = Omflp_serve.Wire
module Conn = Omflp_serve.Conn
module Checkpoint = Omflp_serve.Checkpoint
module Metrics = Omflp_obs.Metrics

let us x = x *. 1e6
let ms x = x *. 1e3

(* Median over [reps] repetitions of [f], which returns seconds per item. *)
let median_of reps f = Pb_stats.median (Array.init reps (fun _ -> f ()))

(* ---------- Wire ---------- *)

let decisions_of (inp : Serve_bench.inputs) stream =
  let s = Session.create ~algo:(Serve_bench.find_algo ()) ~seed:inp.seed (Instance.env inp.env) in
  Array.map (Session.handle s) stream

let wire (inp : Serve_bench.inputs) =
  let lines = Array.concat (Array.to_list inp.lines) in
  let n_sites = Instance.n_sites inp.env and n_commodities = Instance.n_commodities inp.env in
  let parse () =
    let t0 = Util.now () in
    for _ = 1 to 5 do
      Array.iter
        (fun l ->
          match Wire.parse_request ~n_sites ~n_commodities l with
          | Ok _ -> ()
          | Error e -> failwith ("Wire.parse_request: " ^ e))
        lines
    done;
    (Util.now () -. t0) /. float_of_int (5 * Array.length lines)
  in
  let ds = decisions_of inp inp.streams.(0) in
  let b = Buffer.create 1024 in
  let out_bytes = ref 0 in
  let encode () =
    out_bytes := 0;
    let t0 = Util.now () in
    for _ = 1 to 5 do
      Array.iter
        (fun d ->
          Buffer.clear b;
          Wire.decision_to_buffer ~latency_s:1.5e-5 b d;
          out_bytes := !out_bytes + Buffer.length b + 1)
        ds
    done;
    (Util.now () -. t0) /. float_of_int (5 * Array.length ds)
  in
  let parse_s = median_of 5 parse in
  let encode_s = median_of 5 encode in
  let in_bytes = Array.fold_left (fun n l -> n + String.length l + 1) 0 lines in
  let bytes_per_req =
    (float_of_int in_bytes /. float_of_int (Array.length lines))
    +. (float_of_int !out_bytes /. float_of_int (5 * Array.length ds))
  in
  [
    ("wire.parse_request_ns", "ns", parse_s *. 1e9);
    ("wire.decision_encode_ns", "ns", encode_s *. 1e9);
    ("wire.bytes_per_req", "B", bytes_per_req);
  ]

(* ---------- Session and algorithm ---------- *)

let drain_batch = 32

let session (inp : Serve_bench.inputs) =
  let stream = inp.streams.(0) in
  let n = Array.length stream in
  let handle () =
    let s = Session.create ~algo:(Serve_bench.find_algo ()) ~seed:inp.seed (Instance.env inp.env) in
    let t0 = Util.now () in
    let i = ref 0 in
    while !i < n do
      let k = min drain_batch (n - !i) in
      ignore (Session.handle_batch s (Array.sub stream !i k));
      i := !i + k
    done;
    (Util.now () -. t0) /. float_of_int n
  in
  let handle_s = median_of 5 handle in
  (* Per-step times, index-aligned over repetitions. *)
  let reps = 5 in
  let steps = Array.make_matrix reps n 0.0 in
  let snaps = ref [] in
  for r = 0 to reps - 1 do
    let (module A : Omflp_core.Algo_intf.ALGO) = Serve_bench.find_algo () in
    let st = A.create ~seed:inp.seed (Instance.env inp.env) in
    Array.iteri
      (fun i req ->
        let t0 = Util.now () in
        ignore (A.step st req);
        steps.(r).(i) <- Util.now () -. t0;
        (* The server snapshots every 16 requests; time the same calls. *)
        if r = 0 && (i + 1) mod 16 = 0 then begin
          let blob, dt = Util.time (fun () -> A.snapshot st) in
          ignore (Sys.opaque_identity blob);
          snaps := dt :: !snaps
        end)
      stream
  done;
  let all = Array.concat (Array.to_list steps) in
  let per_index = Array.init n (fun i -> Pb_stats.median (Array.init reps (fun r -> steps.(r).(i)))) in
  let decile lo = Pb_stats.mean (Array.sub per_index lo (max 1 (n / 10))) in
  let step_mean = Pb_stats.mean per_index in
  let q50, q99 =
    match Pb_stats.quantiles all [ 0.5; 0.99 ] with [ a; b ] -> (a, b) | _ -> assert false
  in
  ( [
      ("session.handle_us", "us", us handle_s);
      ("session.self_us", "us", us (handle_s -. step_mean));
      ("algo.step_p50_us", "us", us q50.value);
      ("algo.step_p99_us", "us", us q99.value);
      ("algo.step_growth", "ratio", decile (n - max 1 (n / 10)) /. decile 0);
      ("algo.snapshot_us", "us", us (Pb_stats.mean (Array.of_list !snaps)));
    ],
    step_mean,
    handle_s )

(* ---------- Checkpoint ---------- *)

(* Session.handle_batch's durable path, call by call: WAL batch append,
   steps, decision batch append, a snapshot when a multiple of 16 is
   crossed; then close and resume. *)
let checkpoint (inp : Serve_bench.inputs) =
  let dir = "probe-checkpoint" in
  Util.rm_rf dir;
  let (module A : Omflp_core.Algo_intf.ALGO) = Serve_bench.find_algo () in
  let stream = inp.streams.(0) in
  let n = Array.length stream in
  let every = 16 in
  let cp =
    Checkpoint.create ~dir ~algo:A.name ~seed:(Some inp.seed) ~instance_md5:"perfbench"
      ~snapshot_every:every
  in
  let st = A.create ~seed:inp.seed (Instance.env inp.env) in
  let s_shadow = Session.create ~algo:(Serve_bench.find_algo ()) ~seed:inp.seed (Instance.env inp.env) in
  let wal = Buffer.create 4096 and dec = Buffer.create 16384 in
  let wal_t = ref [] and dec_t = ref [] and snap_t = ref [] and snap_b = ref [] in
  let i = ref 0 in
  while !i < n do
    let k = min drain_batch (n - !i) in
    Buffer.clear wal;
    for j = 0 to k - 1 do
      Buffer.add_string wal (Wire.request_to_json ~index:(!i + j) stream.(!i + j));
      Buffer.add_char wal '\n'
    done;
    wal_t := snd (Util.time (fun () -> Checkpoint.append_wal_batch cp wal)) :: !wal_t;
    Buffer.clear dec;
    for j = 0 to k - 1 do
      ignore (A.step st stream.(!i + j));
      (* The decision record itself comes from a shadow session: the
         bytes are what the server appends. *)
      Wire.decision_to_buffer dec (Session.handle s_shadow stream.(!i + j));
      Buffer.add_char dec '\n'
    done;
    dec_t := snd (Util.time (fun () -> Checkpoint.append_decision_batch cp dec)) :: !dec_t;
    if (!i + k) / every > !i / every then begin
      let blob = A.snapshot st in
      snap_b := float_of_int (String.length blob) :: !snap_b;
      snap_t := snd (Util.time (fun () -> Checkpoint.write_snapshot cp ~count:(!i + k) blob)) :: !snap_t
    end;
    i := !i + k
  done;
  Checkpoint.close cp;
  let bytes = Util.du dir in
  let resume () =
    let t0 = Util.now () in
    let rz =
      Checkpoint.open_resume ~dir ~n_sites:(Instance.n_sites inp.env)
        ~n_commodities:(Instance.n_commodities inp.env) ~instance_md5:"perfbench"
    in
    let s, _ = Session.resume ~algo:(Serve_bench.find_algo ()) rz (Instance.env inp.env) in
    ignore (Session.count s);
    Checkpoint.close rz.Checkpoint.cp;
    Util.now () -. t0
  in
  let resume_s = median_of 3 resume in
  Util.rm_rf dir;
  let mean l = Pb_stats.mean (Array.of_list l) in
  let wal_s = mean !wal_t and dec_s = mean !dec_t and snap_s = mean !snap_t in
  ( [
      ("checkpoint.wal_append_us", "us", us wal_s);
      ("checkpoint.decision_append_us", "us", us dec_s);
      ("checkpoint.snapshot_ms", "ms", ms snap_s);
      ("checkpoint.snapshot_kb", "KiB", mean !snap_b /. 1024.0);
      ("checkpoint.bytes_per_req", "B", float_of_int bytes /. float_of_int n);
      ("checkpoint.resume_ms", "ms", ms resume_s);
    ],
    (* per-request share of the durable path, seconds *)
    ((wal_s +. dec_s) /. float_of_int drain_batch) +. (snap_s /. float_of_int every) )

(* ---------- Conn + Pool ---------- *)

(* A reader pushes the stream at the reference rate; a Pool worker
   drains it with Conn.take and Session.handle_batch, as the server's
   drain task does. Handoff = Conn.push call to the Conn.take that
   returned the request. *)
let conn (inp : Serve_bench.inputs) =
  let stream = inp.streams.(0) in
  let n = min (Array.length stream) (max 200 (int_of_float (inp.spec.Workloads.ref_rate *. 0.5))) in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Conn.of_fd ~cap:64 a in
  let session = Session.create ~algo:(Serve_bench.find_algo ()) ~seed:inp.seed (Instance.env inp.env) in
  let pool = Omflp_prelude.Pool.create ~jobs:2 in
  let pushed = Array.make n 0.0 and taken = Array.make n 0.0 in
  let batches = ref [] in
  let next = ref 0 in
  let finished = Atomic.make false in
  let rec drain () =
    match Conn.take c ~max:drain_batch with
    | Conn.Idle -> ()
    | Conn.Finished -> Atomic.set finished true
    | Conn.Batch rs ->
        let t = Util.now () in
        for j = 0 to Array.length rs - 1 do
          taken.(!next + j) <- t
        done;
        next := !next + Array.length rs;
        batches := Array.length rs :: !batches;
        ignore (Session.handle_batch session rs);
        drain ()
  in
  let schedule () = Omflp_prelude.Pool.submit pool drain in
  let gap = 1.0 /. inp.spec.Workloads.ref_rate in
  let t0 = Util.now () in
  for i = 0 to n - 1 do
    let due = t0 +. (float_of_int i *. gap) in
    let wait = due -. Util.now () in
    if wait > 0.0 then Unix.sleepf wait;
    pushed.(i) <- Util.now ();
    if Conn.push c stream.(i) then schedule ()
  done;
  if Conn.finish_input c then schedule ();
  while not (Atomic.get finished) do
    Unix.sleepf 0.0005
  done;
  Omflp_prelude.Pool.shutdown pool;
  Conn.close c;
  Unix.close b;
  let handoff = Array.init n (fun i -> taken.(i) -. pushed.(i)) in
  let qs = Pb_stats.quantiles handoff [ 0.5; 0.99 ] in
  let q50, q99 = match qs with [ a; b ] -> (a, b) | _ -> assert false in
  let bs = Array.of_list (List.map float_of_int !batches) in
  ( [
      ("conn.handoff_p50_us", "us", us q50.value);
      ("conn.handoff_p99_us", "us", us q99.value);
      ("conn.batch_mean", "requests", Pb_stats.mean bs);
    ],
    q50.value )

(* ---------- socket ---------- *)

(* Round trips of one request-sized line to an echo peer (this binary in
   --echo-server mode), one at a time. *)
let echo_rtt (inp : Serve_bench.inputs) =
  let path = "echo.sock" in
  (try Sys.remove path with Sys_error _ -> ());
  let child = Util.spawn ~log:"echo.log" Sys.executable_name [ "--echo-server"; path ] in
  Fun.protect ~finally:(fun () -> Util.stop child) (fun () ->
      let fd = Util.connect_unix ~timeout:10.0 path in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Util.line_reader fd in
          let lines = inp.lines.(0) in
          let n = 5000 in
          let rtt =
            Array.init n (fun i ->
                let l = lines.(i mod Array.length lines) in
                let t0 = Util.now () in
                Util.send_line fd l;
                match Util.read_line ~timeout:10.0 r with
                | Some back when back = l -> Util.now () -. t0
                | _ -> failwith "echo peer returned a different line")
          in
          let q = Pb_stats.quantile rtt 0.5 in
          ([ ("socket.echo_rtt_p50_us", "us", us q.value) ], q.value)))

let echo_server path =
  let l = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX path);
  Unix.listen l 1;
  let fd, _ = Unix.accept ~cloexec:true l in
  let buf = Bytes.create 65536 in
  let rec loop () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Util.write_all fd (Bytes.sub_string buf 0 n) 0 n;
        loop ()
  in
  loop ();
  Unix.close fd;
  Unix.close l;
  Sys.remove path

(* ---------- loadgen against the real server ---------- *)

let loadgen ~omflp (inp : Serve_bench.inputs) =
  let child, _ = Serve_bench.setup_once ~omflp inp ~id:"probe-setup" in
  Fun.protect ~finally:(fun () -> Util.stop child) (fun () ->
      let ctr = { Serve_bench.attempted = 0; failed = 0; notes = [] } in
      let rate = inp.spec.Workloads.ref_rate in
      let sessions = Serve_bench.sessions_for inp ~rate ~seconds:1.5 in
      let r = Serve_bench.phase ctr inp ~label:"loadgen probe" ~mode:(Serve_bench.open_at rate) ~sessions in
      let late = Pb_stats.quantile r.Loadgen.late 0.99 in
      let lat50 = Pb_stats.quantile r.latency 0.5 in
      Printf.printf "#     generator lateness p99 %.4f ms (n=%d, %d beyond), CPU share %.3f\n"
        (ms late.value) late.n late.beyond r.cpu_share;
      ( [
          ("loadgen.late_p99_ms", "ms", ms late.value);
          ("loadgen.cpu_share", "ratio", r.cpu_share);
        ],
        lat50.value,
        r.cpu_share *. r.elapsed /. float_of_int (max 1 (Array.length r.latency)),
        ctr ))

(* ---------- program counters ---------- *)

let counters (inp : Serve_bench.inputs) =
  let stream = inp.streams.(0) in
  let n = float_of_int (Array.length stream) in
  Metrics.reset ();
  Metrics.set_enabled true;
  let (module A : Omflp_core.Algo_intf.ALGO) = Serve_bench.find_algo () in
  let st = A.create ~seed:inp.seed (Instance.env inp.env) in
  Array.iter (fun r -> ignore (A.step st r)) stream;
  let snap = Metrics.snapshot () in
  Metrics.set_enabled false;
  let get name =
    match List.find_opt (fun c -> c.Metrics.c_name = name) snap.Metrics.counters with
    | Some c -> float_of_int c.c_value
    | None -> 0.0
  in
  let hits = get "metric.dist_cache.hits" and rows = get "metric.dist_cache.rows_built" in
  [
    ("pd.loop_iters.per_req", "count", get "pd.loop_iters" /. n);
    ("pd.cache_updates.per_req", "count", get "pd.cache_updates" /. n);
    ("index.cell_updates.per_req", "count", get "index.cell_updates" /. n);
    ("metric.dist_cache.hit_ratio", "ratio", if hits +. rows > 0.0 then hits /. (hits +. rows) else 0.0);
  ]

(* In-process stepping rate with the program's metrics on against off:
   what turning tracing on costs. *)
let overhead (inp : Serve_bench.inputs) =
  let stream = inp.streams.(0) in
  let rate enabled () =
    Metrics.set_enabled enabled;
    let s = Session.create ~algo:(Serve_bench.find_algo ()) ~seed:inp.seed (Instance.env inp.env) in
    let _, dt = Util.time (fun () -> Array.iter (fun r -> ignore (Session.handle s r)) stream) in
    Metrics.set_enabled false;
    float_of_int (Array.length stream) /. dt
  in
  let off = Array.make 5 0.0 and on = Array.make 5 0.0 in
  for i = 0 to 4 do
    off.(i) <- rate false ();
    on.(i) <- rate true ()
  done;
  let off = Pb_stats.median off and on = Pb_stats.median on in
  ([ ("trace.overhead_pct", "%", 100.0 *. ((off /. on) -. 1.0)) ], off, on)

(* ---------- offline ---------- *)

let offline ctr ~full =
  let open Omflp_offline in
  let corpus = Workloads.corpus ~full in
  let by_class = Hashtbl.create 4 in
  let lp_build = ref [] and lp_solve = ref [] and ilp = ref [] in
  let greedy = ref [] and ls = ref [] and pd = ref [] and jv = ref [] and sr = ref [] in
  let rows = ref 0 and cols = ref 0 in
  let lp_used = ref 0 and lp_tried = ref 0 in
  let wins = Hashtbl.create 4 in
  let push r x = r := x :: !r in
  List.iter
    (fun (e : Workloads.corpus_entry) ->
      let inst = e.inst in
      let b, dt = Util.time (fun () -> Opt_estimate.bracket inst) in
      ctr.Serve_bench.attempted <- ctr.Serve_bench.attempted + 1;
      (match Certify_bench.check e.label b with
      | Ok () -> ()
      | Error msg ->
          ctr.failed <- ctr.failed + 1;
          ctr.notes <- msg :: ctr.notes);
      Hashtbl.replace by_class e.cls (dt :: Option.value (Hashtbl.find_opt by_class e.cls) ~default:[]);
      (match e.cls with
      | Workloads.Ilp_exact -> push ilp (snd (Util.time (fun () -> Exact.ilp_opt inst)))
      | Lp_relaxation | Above_cap ->
          Hashtbl.replace wins b.upper_method (1 + Option.value (Hashtbl.find_opt wins b.upper_method) ~default:0);
          let g, dt = Util.time (fun () -> Greedy_offline.solve inst) in
          push greedy dt;
          push ls (snd (Util.time (fun () -> Local_search.improve inst g.Greedy_offline.facilities)));
          push pd (snd (Util.time (fun () -> Pd_offline.solve ~restarts:3 inst)));
          push sr (snd (Util.time (fun () -> Opt_estimate.single_request_lower inst)));
          if Instance.n_requests inst * Instance.n_sites inst * Instance.n_commodities inst <= 30_000
          then push jv (snd (Util.time (fun () -> Jv_primal_dual.solve inst))));
      if e.cls = Lp_relaxation then begin
        incr lp_tried;
        if b.lower_method = "LP relaxation" then incr lp_used;
        let built, dt = Util.time (fun () -> Omflp_lp.Mflp_model.build inst) in
        push lp_build dt;
        let p = built.Omflp_lp.Mflp_model.problem in
        if p.Omflp_lp.Simplex.n_vars > !cols then begin
          cols := p.n_vars;
          rows := List.length p.constraints
        end;
        push lp_solve (snd (Util.time (fun () -> Omflp_lp.Simplex.solve p)))
      end)
    corpus;
  let mean l = if l = [] then 0.0 else Pb_stats.mean (Array.of_list l) in
  let cls c = mean (Option.value (Hashtbl.find_opt by_class c) ~default:[]) in
  let win m = float_of_int (Option.value (Hashtbl.find_opt wins m) ~default:0) in
  let layer =
    [
      ("offline.bracket_s.ilp", "s", cls Workloads.Ilp_exact);
      ("offline.bracket_s.lp", "s", cls Lp_relaxation);
      ("offline.bracket_s.above_cap", "s", cls Above_cap);
      ("lp.build_ms", "ms", ms (mean !lp_build));
      ("lp.solve_s", "s", mean !lp_solve);
      ("lp.rows", "count", float_of_int !rows);
      ("lp.cols", "count", float_of_int !cols);
      ("ilp.solve_s", "s", mean !ilp);
      ("offline.greedy_ms", "ms", ms (mean !greedy));
      ("offline.local_search_ms", "ms", ms (mean !ls));
      ("offline.pd_offline_ms", "ms", ms (mean !pd));
      ("offline.jv_ms", "ms", ms (mean !jv));
      ("offline.single_request_ms", "ms", ms (mean !sr));
      ("offline.lp_used_ratio", "ratio", float_of_int !lp_used /. float_of_int (max 1 !lp_tried));
      ("offline.upper_win.greedy", "count", win "greedy");
      ("offline.upper_win.greedy_ls", "count", win "greedy + local search");
      ("offline.upper_win.pd_offline", "count", win "pd-offline");
      ("offline.upper_win.jv", "count", win "jv primal-dual");
    ]
  in
  (* Per-bracket totals for the certify attribution table. *)
  let sum l = List.fold_left ( +. ) 0.0 l in
  let bracket_total = Hashtbl.fold (fun _ ts acc -> acc +. sum ts) by_class 0.0 in
  let parts =
    [
      ("lp build (Mflp_model.build)", sum !lp_build);
      ("lp solve (Simplex.solve)", sum !lp_solve);
      ("ilp (Exact.ilp_opt)", sum !ilp);
      ("greedy (Greedy_offline.solve)", sum !greedy);
      ("local search (Local_search.improve)", sum !ls);
      ("pd offline (Pd_offline.solve)", sum !pd);
      ("jv (Jv_primal_dual.solve)", sum !jv);
      ("single request (Opt_estimate)", sum !sr);
    ]
  in
  (layer, bracket_total, List.length corpus, parts)

(* ---------- the traced run ---------- *)

let print_table ~title ~unit ~total ~overhead rows =
  Printf.printf "# attribution: %s\n" title;
  Printf.printf "#   %-40s %12s %7s\n" "layer (self time per request)" unit "share";
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows in
  List.iter
    (fun (name, v) -> Printf.printf "#   %-40s %12.3f %6.1f%%\n" name v (100.0 *. v /. total))
    rows;
  Printf.printf "#   %-40s %12.3f %6.1f%%\n" "unexplained remainder" (total -. sum)
    (100.0 *. (total -. sum) /. total);
  Printf.printf "#   %-40s %12.3f %6.1f%%\n" "end-to-end total" total 100.0;
  Printf.printf "#   tracing overhead: %s\n%!" overhead

let run ~omflp workload ~seed =
  let spec, is_serve =
    match workload with
    | "serve-light" -> (Workloads.serve_light, true)
    | "serve-durable" -> (Workloads.serve_durable, true)
    | "serve-heavy" -> (Workloads.serve_heavy, true)
    | _ -> (Workloads.serve_light, false)
  in
  let inp = Serve_bench.prepare spec ~seed in
  Printf.printf "# traced run of %s: serve-layer probes on %s inputs, offline probes on the %s\n%!"
    workload spec.Workloads.name
    (if is_serve then "timed corpus" else "timed corpus and the clustered LP model");
  let lg, lat50, gen_cpu_per_req, ctr = loadgen ~omflp inp in
  let sock, echo50 = echo_rtt inp in
  let wi = wire inp in
  let get name ms = List.assoc name (List.map (fun (n, _, v) -> (n, v)) ms) in
  let se, step_mean, handle_s = session inp in
  let cp, cp_per_req = checkpoint inp in
  let cn, handoff50 = conn inp in
  let ct = counters inp in
  let ov, off, on = overhead inp in
  let off_layer, bracket_total, n_brackets, parts = offline ctr ~full:(not is_serve) in
  let overhead_line =
    Printf.sprintf "in-process stepping %.0f req/s untraced, %.0f req/s traced (%+.2f%%)" off on
      (100.0 *. ((off /. on) -. 1.0))
  in
  if is_serve then
    print_table
      ~title:(Printf.sprintf "%s, lat_p50 at %.0f req/s open loop" workload spec.ref_rate)
      ~unit:"us" ~total:(us lat50) ~overhead:overhead_line
      ([
         ("loadgen (generator CPU)", us gen_cpu_per_req);
         ("socket (echo round trip p50)", us echo50);
         ("wire (parse + encode)", (get "wire.parse_request_ns" wi +. get "wire.decision_encode_ns" wi) /. 1000.0);
         ("conn + pool (handoff p50)", us handoff50);
         ("session (self)", us (handle_s -. step_mean));
         ("algorithm step (mean)", us step_mean);
       ]
      @ if spec.checkpoint then [ ("checkpoint (per request)", us cp_per_req) ] else [])
  else
    print_table
      ~title:(Printf.sprintf "certify, %d brackets" n_brackets)
      ~unit:"ms" ~total:(ms bracket_total /. float_of_int n_brackets) ~overhead:overhead_line
      (List.map (fun (n, v) -> (n, ms v /. float_of_int n_brackets)) parts);
  let metrics = lg @ sock @ wi @ cn @ se @ cp @ ct @ ov @ off_layer in
  (metrics, ctr)

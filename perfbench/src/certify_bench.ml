(* The certify workload: [Opt_estimate.bracket] called in-process over a
   fixed corpus that covers the three bracket paths (ILP-exact, LP
   relaxation, above the LP cap). Every bracket is checked against the
   values pinned below. *)

open Omflp_instance
open Perfbench_kit

let corpus_dir = "corpus"

(* label -> (lower, lower_method, upper, upper_method), as computed by the
   seed code of this benchmark. A bracket matches when both methods are
   equal and both bounds agree within 1e-9 relative. *)
let pinned =
  [
    ("ilp-line-5x10-s4", (7.8783151775108653, "ILP branch&bound", 7.8783151775108653, "ILP branch&bound"));
    ("ilp-line-4x8-s3", (5.8783151775108493, "ILP branch&bound", 5.8783151775108493, "ILP branch&bound"));
    ("ilp-clustered-2x2x10-s4", (4.4291750137765877, "ILP branch&bound", 4.4291750137765877, "ILP branch&bound"));
    ("lp-clustered-2x3x12-s5", (7.7067423022570782, "LP relaxation", 7.7067423022570392, "greedy"));
    ("lp-line-4x8-s5", (6.7320508075688794, "LP relaxation", 6.7320508075688767, "greedy"));
    ("lp-line-3x10-s5", (5.9681187850686799, "LP relaxation", 5.9681187850686666, "greedy"));
    ("cap-line-10x30-s6", (1.7320508075688772, "hardest single request", 17.217139432256275, "greedy"));
    ("cap-clustered-3x4x30-s8", (2.0, "hardest single request", 18.944382936949662, "greedy"));
    ("cap-line-8x20-s5", (1.7320508075688772, "hardest single request", 11.892651780925213, "greedy"));
  ]

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check label (b : Omflp_offline.Opt_estimate.bracket) =
  match List.assoc_opt label pinned with
  | None -> Error (Printf.sprintf "%s: no pinned bracket" label)
  | Some (lo, lm, up, um) ->
      if rel_close b.lower lo && b.lower_method = lm && rel_close b.upper up
         && b.upper_method = um
      then Ok ()
      else
        Error
          (Printf.sprintf "%s: bracket [%.17g (%s), %.17g (%s)] differs from pinned [%.17g (%s), %.17g (%s)]"
             label b.lower b.lower_method b.upper b.upper_method lo lm up um)

(* The corpus as files: built once (untimed), then loaded for setup. *)
let write_corpus corpus =
  Util.mkdir_p corpus_dir;
  List.map
    (fun (e : Workloads.corpus_entry) ->
      let path = Filename.concat corpus_dir (e.label ^ ".inst") in
      Serial.save_file path e.inst;
      (e, path))
    corpus

let setup_reps = 7

let load_corpus files =
  List.map (fun ((e : Workloads.corpus_entry), path) -> (e, Serial.load_file path)) files

(* Cold start of a certifier: a fresh process (this binary with
   --load-corpus) that loads every corpus file and exits. *)
let setup files =
  Array.init setup_reps (fun _ ->
      let t0 = Util.now () in
      let child =
        Util.spawn ~log:"setup.log" Sys.executable_name
          ("--load-corpus" :: List.map snd files)
      in
      match Unix.waitpid [] child.Util.pid with
      | _, Unix.WEXITED 0 ->
          child.Util.alive <- false;
          Util.now () -. t0
      | _ ->
          child.Util.alive <- false;
          failwith "certify setup: corpus loader failed")

(* Seeded Fisher-Yates: the run's seed only chooses the bracket order. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Omflp_prelude.Splitmix.of_int seed in
  for i = Array.length a - 1 downto 1 do
    let j = Omflp_prelude.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Brackets slower than this miss the certification latency limit; they
   count in [peak_rps] but not in [sustained_rps]. *)
let lat_limit_s = 0.35

(* At least this many passes over the corpus, then whole passes while
   the run's time lasts. *)
let min_passes = 5

let run ~seconds ~seed =
  let files = write_corpus (Workloads.corpus ~full:false) in
  let setup_times = setup files in
  let loaded = load_corpus files in
  Printf.printf "# workload certify: %d corpus instances; setup (start a process, load the corpus) %s s\n%!"
    (List.length loaded)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.5f") setup_times)));
  let order = shuffle ~seed loaded in
  let times = Hashtbl.create 16 in
  let failed = ref 0 and attempted = ref 0 and notes = ref [] in
  let t_start = Util.now () in
  let last_pass = ref 0.0 and passes = ref 0 in
  while !passes < min_passes || Util.now () -. t_start +. !last_pass <= seconds do
    let p0 = Util.now () in
    List.iter
      (fun ((e : Workloads.corpus_entry), inst) ->
        let b, dt = Util.time (fun () -> Omflp_offline.Opt_estimate.bracket inst) in
        incr attempted;
        Hashtbl.replace times e.label (dt :: Option.value (Hashtbl.find_opt times e.label) ~default:[]);
        match check e.label b with
        | Ok () -> ()
        | Error msg ->
            incr failed;
            notes := msg :: !notes)
      order;
    last_pass := Util.now () -. p0;
    incr passes
  done;
  (* Each instance's bracket time is its fastest over the passes: the
     machine's other tenants only ever add time, and the pass-to-pass
     spread they cause (up to 30% here) dwarfs the run-to-run spread of
     the minimum. The metrics are taken over these per-instance times. *)
  let fastest =
    List.map
      (fun ((e : Workloads.corpus_entry), _) ->
        let ts = Array.of_list (List.rev (Hashtbl.find times e.label)) in
        let m = (Pb_stats.quantile ts 0.0).Pb_stats.value in
        Printf.printf "#   %-26s %-10s fastest %.4f s of %s\n" e.label
          (Workloads.class_name e.cls) m
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") ts)));
        m)
      loaded
    |> Array.of_list
  in
  let total = Array.fold_left ( +. ) 0.0 fastest in
  let within = Array.fold_left (fun n t -> if t <= lat_limit_s then n + 1 else n) 0 fastest in
  let qs = Pb_stats.quantiles fastest [ 0.5; 0.99 ] in
  List.iter
    (fun (q : Pb_stats.quantile) ->
      Printf.printf "#   bracket time p%g = %.4f s (n=%d, %d beyond)\n" (q.q *. 100.0) q.value q.n q.beyond)
    qs;
  Printf.printf "#   closed batch, one caller, %d passes; %d of %d brackets within %.1f s\n%!"
    !passes within (Array.length fastest) lat_limit_s;
  let q50 = (List.hd qs).Pb_stats.value in
  ( {
      Workloads.setup_s = Pb_stats.median setup_times;
      peak_rps = float_of_int (Array.length fastest) /. total;
      sustained_rps = float_of_int within /. total;
      lat_p50_ms = q50 *. 1000.0;
      rss_mb = Util.vm_hwm_mb 0;
    },
    (!attempted, !failed, List.rev !notes) )

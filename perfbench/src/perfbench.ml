(* Entry point of the repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --omflp PATH --work-dir DIR

   Runs one workload, prints what it did (loop type, rates, windows,
   sample counts, machine fingerprint) on lines starting with '#', and as
   its last line one JSON object: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones. Exit code 0 only when every output was
   checked and correct. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload serve-light|serve-durable|serve-heavy|certify \
     --seed N --seconds S --trace 0|1 --omflp PATH --work-dir DIR";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  omflp : string;
  work_dir : string;
}

let parse_args () =
  let a = ref [] in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        a := (k, v) :: !a;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match List.assoc_opt k !a with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  {
    workload = get "--workload";
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace = (match get "--trace" with "0" -> false | "1" -> true | _ -> usage ());
    omflp = get "--omflp";
    work_dir = get "--work-dir";
  }

let metric_json (name, unit, v) =
  Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (Util.json_str name) v (Util.json_str unit)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, u, v) -> Printf.printf "# %-34s %.6g %s\n" n v u) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed
    (String.concat "," (List.map metric_json metrics))

let serve_spec = function
  | "serve-light" -> Some Workloads.serve_light
  | "serve-durable" -> Some Workloads.serve_durable
  | "serve-heavy" -> Some Workloads.serve_heavy
  | _ -> None

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--echo-server"; path ] ->
      Layers.echo_server path;
      exit 0
  | _ :: "--load-corpus" :: paths ->
      List.iter (fun p -> ignore (Sys.opaque_identity (Omflp_instance.Serial.load_file p))) paths;
      exit 0
  | _ -> ());
  let args = parse_args () in
  let omflp =
    if Filename.is_relative args.omflp then Filename.concat (Sys.getcwd ()) args.omflp
    else args.omflp
  in
  if serve_spec args.workload = None && args.workload <> "certify" then usage ();
  Util.mkdir_p args.work_dir;
  Sys.chdir args.work_dir;
  Printf.printf "# fingerprint %s\n%!" (Fingerprint.to_json ~checkpoint_dir:".");
  Printf.printf "# workload %s, seed %d, %g s, trace %b\n%!" args.workload args.seed
    args.seconds args.trace;
  let attempted, failed, notes, metrics =
    match (serve_spec args.workload, args.trace) with
    | Some spec, false ->
        let e, ctr = Serve_bench.run ~omflp ~seconds:args.seconds spec ~seed:args.seed in
        (ctr.Serve_bench.attempted, ctr.failed, ctr.notes, Workloads.e2e_metrics e)
    | None, false ->
        let e, (attempted, failed, notes) =
          Certify_bench.run ~seconds:args.seconds ~seed:args.seed
        in
        (attempted, failed, notes, Workloads.e2e_metrics e)
    | _, true ->
        let metrics, ctr = Layers.run ~omflp args.workload ~seed:args.seed in
        (ctr.Serve_bench.attempted, ctr.failed, ctr.notes, metrics)
  in
  List.iter (fun n -> Printf.printf "# FAILURE %s\n" n) (List.rev notes);
  let correct = failed = 0 && attempted > 0 in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)

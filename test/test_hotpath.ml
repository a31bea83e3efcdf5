(* The hot-path optimization layer's contracts:

   - Dist_cache serves exactly the kernel's values and counts its work;
   - lazy (Memo) metrics are indistinguishable from the eager matrices
     they replaced;
   - the incremental Nearest_index agrees with a naive full scan over
     the open-facility list (the code it replaced);
   - Simulator.run_many equals per-algorithm Simulator.run;
   - the golden run digests (test/golden/run_digests.txt) still hold:
     byte-identical decisions for every registered algorithm;
   - PD-OMFLP's decisions on two large instances, and a snapshot taken
     mid-stream on one of them, match pins taken before the event loop
     and the opening walk were pruned. *)

open Omflp_prelude
open Omflp_metric
open Omflp_commodity
open Omflp_instance

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float_exact msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%h = %h)" msg a b) true (a = b)

(* ---------- Dist_cache ---------- *)

let test_cache_values () =
  let kernel a b = Float.abs (float_of_int (a - b)) *. 1.5 in
  let c = Dist_cache.create ~n:6 ~kernel in
  for a = 0 to 5 do
    for b = 0 to 5 do
      check_float_exact "get = kernel" (kernel a b) (Dist_cache.get c a b)
    done
  done;
  for a = 0 to 5 do
    let row = Dist_cache.row c a in
    for b = 0 to 5 do
      check_float_exact "row = kernel" (kernel a b) row.(b)
    done
  done

let test_cache_stats () =
  let calls = ref 0 in
  let kernel a b =
    incr calls;
    Float.abs (float_of_int (a - b))
  in
  let c = Dist_cache.create ~n:4 ~kernel in
  check_int "no kernel calls at create" 0 !calls;
  ignore (Dist_cache.get c 1 2);
  let s = Dist_cache.stats c in
  check_int "first get builds one row" 1 s.Dist_cache.row_builds;
  check_int "one row resident" 1 s.Dist_cache.rows_resident;
  check_int "first get is not a hit" 0 s.Dist_cache.hits;
  (* Same pair again: served from row 1. *)
  ignore (Dist_cache.get c 1 3);
  (* Mirrored pair: row 2 is not resident, but row 1 is — a symmetric
     kernel lets (2, 1) answer from row 1 without building row 2. *)
  ignore (Dist_cache.get c 2 1);
  let s = Dist_cache.stats c in
  check_int "no extra rows built" 1 s.Dist_cache.row_builds;
  check_int "both lookups were hits" 2 s.Dist_cache.hits;
  check_int "kernel ran once per row cell" 4 !calls

let test_cache_bounds () =
  let c = Dist_cache.create ~n:3 ~kernel:(fun _ _ -> 0.0) in
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Dist_cache.get: (3, 0) outside [0, 3)") (fun () ->
      ignore (Dist_cache.get c 3 0));
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Dist_cache.row: -1 outside [0, 3)") (fun () ->
      ignore (Dist_cache.row c (-1)))

(* ---------- lazy metrics = eager matrices ---------- *)

let test_lazy_line_equals_dense () =
  let positions = [| 0.0; 3.5; 1.25; 10.0; 7.75 |] in
  let n = Array.length positions in
  let lazy_m = Finite_metric.line positions in
  let dense =
    Finite_metric.of_matrix
      (Array.init n (fun i ->
           Array.init n (fun j -> Float.abs (positions.(i) -. positions.(j)))))
  in
  for i = 0 to n - 1 do
    let row = Finite_metric.row lazy_m i in
    for j = 0 to n - 1 do
      check_float_exact "line dist" (Finite_metric.dist dense i j)
        (Finite_metric.dist lazy_m i j);
      check_float_exact "line row" (Finite_metric.dist dense i j) row.(j)
    done
  done

let test_lazy_euclidean_equals_dense () =
  let points = [| (0.0, 0.0); (3.0, 4.0); (1.0, 1.0); (10.0, 2.0) |] in
  let n = Array.length points in
  let lazy_m = Finite_metric.euclidean points in
  let dist i j =
    let xi, yi = points.(i) and xj, yj = points.(j) in
    let dx = xi -. xj and dy = yi -. yj in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check_float_exact "euclidean dist" (dist i j)
        (Finite_metric.dist lazy_m i j);
      check_float_exact "symmetric" (Finite_metric.dist lazy_m i j)
        (Finite_metric.dist lazy_m j i)
    done
  done

let test_lazy_uniform () =
  let m = Finite_metric.uniform 5 ~d:2.5 in
  for i = 0 to 4 do
    for j = 0 to 4 do
      check_float_exact "uniform dist"
        (if i = j then 0.0 else 2.5)
        (Finite_metric.dist m i j)
    done
  done

(* ---------- Nearest_index = naive full scan ---------- *)

(* A random 1-D metric plus a random opening sequence; the index must
   agree cell-for-cell with a scan over the opening list (the
   pre-refactor Facility_store behavior: min distance, earliest-opened
   wins ties). *)
let index_scenario_gen =
  QCheck.make ~print:(fun (pos, opens, s) ->
      Printf.sprintf "n=%d |S|=%d openings=%d" (List.length pos) s
        (List.length opens))
    QCheck.Gen.(
      let* n_sites = int_range 2 8 in
      let* n_commodities = int_range 1 5 in
      let* pos = list_size (return n_sites) (float_bound_inclusive 50.0) in
      let* n_open = int_range 0 6 in
      let* opens =
        list_size (return n_open)
          (pair (int_range 0 (n_sites - 1))
             (list_size (int_range 0 n_commodities)
                (int_range 0 (n_commodities - 1))))
      in
      return (pos, opens, n_commodities))

let prop_index_equals_scan =
  QCheck.Test.make ~name:"nearest index = naive scan" ~count:200
    index_scenario_gen (fun (pos, opens, n_commodities) ->
      let positions = Array.of_list pos in
      let n_sites = Array.length positions in
      let metric = Finite_metric.line positions in
      let index = Omflp_core.Nearest_index.create ~n_commodities ~n_sites in
      (* (site, offered, id) in opening order; id is the opening rank. *)
      let openings =
        List.mapi
          (fun id (site, commodities) ->
            let offered =
              if commodities = [] then Cset.full ~n_commodities
              else Cset.of_list ~n_commodities commodities
            in
            (site, offered, id))
          opens
      in
      List.iter
        (fun (site, offered, id) ->
          Omflp_core.Nearest_index.note_opened index metric ~site ~offered ~id)
        openings;
      let naive ~pred ~site =
        List.fold_left
          (fun (best_d, best_id) (f_site, offered, id) ->
            if pred offered then
              let d = Finite_metric.dist metric site f_site in
              if d < best_d then (d, id) else (best_d, best_id)
            else (best_d, best_id))
          (infinity, -1) openings
      in
      let ok = ref true in
      for site = 0 to n_sites - 1 do
        for e = 0 to n_commodities - 1 do
          let d, id = naive ~pred:(fun off -> Cset.mem off e) ~site in
          if
            not
              (Omflp_core.Nearest_index.dist index ~commodity:e ~site = d
              && Omflp_core.Nearest_index.id index ~commodity:e ~site = id)
          then ok := false
        done;
        let d, id = naive ~pred:Cset.is_full ~site in
        if
          not
            (Omflp_core.Nearest_index.dist_large index ~site = d
            && Omflp_core.Nearest_index.id_large index ~site = id)
        then ok := false
      done;
      !ok)

(* ---------- run_many = run ---------- *)

let test_run_many_equals_run () =
  let rng = Splitmix.of_int 0xcafe in
  let inst =
    Generators.clustered rng ~clusters:3 ~per_cluster:4 ~n_requests:30
      ~n_commodities:6 ~side:100.0 ~spread:2.0
      ~cost:(fun ~n_commodities ~n_sites ->
        Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let algos =
    Omflp_core.Registry.of_family (Omflp_instance.Instance.family inst)
  in
  let batched = Omflp_core.Simulator.run_many ~seed:11 algos inst in
  check_int "one run per algorithm" (List.length algos) (List.length batched);
  List.iter2
    (fun (name, (module A : Omflp_core.Algo_intf.ALGO)) (name', batch) ->
      Alcotest.(check string) "order preserved" name name';
      let solo = Omflp_core.Simulator.run ~seed:11 (module A) inst in
      Alcotest.(check string)
        (name ^ " digest")
        (Omflp_check.Oracle.run_digest solo)
        (Omflp_check.Oracle.run_digest batch))
    algos batched

(* ---------- golden digests: the decision-invariance pin ---------- *)

(* Every (scenario, algorithm) digest in test/golden/run_digests.txt must
   reproduce exactly. This is the contract that lets the caching /
   indexing layer claim "same decisions, less work"; regenerate
   deliberately with [dune exec tools/gen_digests.exe >
   test/golden/run_digests.txt] only when an algorithm's behavior is
   meant to change. *)
let test_golden_digests () =
  let golden = "golden/run_digests.txt" in
  let path =
    if Sys.file_exists golden then golden else Filename.concat "test" golden
  in
  let lines =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  check_bool "golden file has rows" true (List.length lines > 0);
  let master_seed = 0xD16E57 in
  let algos = Omflp_core.Registry.extended () in
  let digests = Hashtbl.create 256 in
  let n_scenarios = 36 in
  let expected_rows = ref 0 in
  for index = 0 to n_scenarios - 1 do
    let scenario = Omflp_check.Scenario.golden ~master_seed ~index in
    let fam =
      Omflp_instance.Instance.family scenario.Omflp_check.Scenario.instance
    in
    List.iter
      (fun (name, algo) ->
        if Omflp_core.Registry.family_of algo = fam then begin
          incr expected_rows;
          let run =
            Omflp_core.Simulator.run
              ~seed:scenario.Omflp_check.Scenario.algo_seed ~check:false algo
              scenario.Omflp_check.Scenario.instance
          in
          Hashtbl.replace digests (index, name)
            (Digest.to_hex (Digest.string (Omflp_check.Oracle.run_digest run)))
        end)
      algos
  done;
  check_int "rows = scenarios x family algorithms" !expected_rows
    (List.length lines);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ idx; name; md5 ] ->
          let index = int_of_string idx in
          let got =
            match Hashtbl.find_opt digests (index, name) with
            | Some d -> d
            | None -> Alcotest.failf "no digest for scenario %d %s" index name
          in
          Alcotest.(check string)
            (Printf.sprintf "scenario %02d %s" index name)
            md5 got
      | _ -> Alcotest.failf "malformed golden line %S" line)
    lines

(* ---------- large-instance decision pins ---------- *)

(* The golden scenarios are small, so PD-OMFLP's pruned scans and
   opening walk are barely exercised there. These two instances are
   pinned at the scale where the pruning skips most of the work: (a) the
   serve-heavy benchmark's shape (20x20 clustered sites, |S|=32,
   power-law x=1, 500 requests) and (b) a tie-heavy one (theorem-2
   integer costs on a uniform metric, where many events are exactly
   simultaneous). A pin is the MD5 of [Oracle.run_digest]: every service,
   facility id and cost as %.17g. *)

let heavy_instance () =
  Generators.clustered (Splitmix.of_int 0x4ea7) ~clusters:20 ~per_cluster:20
    ~n_requests:500 ~n_commodities:32 ~side:100.0 ~spread:2.0
    ~cost:(fun ~n_commodities ~n_sites ->
      Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)

let tie_instance () =
  Generators.uniform_metric (Splitmix.of_int 0x71e5) ~n_sites:24 ~d:1.0
    ~n_requests:400 ~n_commodities:16
    ~demand:(Demand.Zipf_bundle { zipf_s = 1.0; max_size = 6 })
    ~cost:Cost_function.theorem2

let md5 s = Digest.to_hex (Digest.string s)

let run_md5 run = md5 (Omflp_check.Oracle.run_digest run)

let stream_md5 (module A : Omflp_core.Algo_intf.ALGO) inst =
  let t = A.create (Instance.env inst) in
  Array.iter (fun r -> ignore (A.step t r)) inst.Instance.requests;
  run_md5 (A.run_so_far t)

let pd_fast = (module Omflp_core.Pd_omflp_fast : Omflp_core.Algo_intf.ALGO)
let pd = (module Omflp_core.Pd_omflp : Omflp_core.Algo_intf.ALGO)

let test_large_pins () =
  let heavy = heavy_instance () and ties = tie_instance () in
  List.iter
    (fun (label, algo, inst, expected) ->
      Alcotest.(check string) label expected (stream_md5 algo inst))
    [
      ("serve-heavy shape, PD-OMFLP-FAST", pd_fast, heavy,
       "c31ccaa190d616c89e89fa2a082b3c1a");
      ("serve-heavy shape, PD-OMFLP", pd, heavy,
       "d87310b7d2a5e92841387c4b0d0936c6");
      ("theorem-2 ties, PD-OMFLP-FAST", pd_fast, ties,
       "f616bb9653fb4a36068fe0bfe912ff76");
      ("theorem-2 ties, PD-OMFLP", pd, ties,
       "c7c56335b645059f928bd12215d5e8b3");
    ]

(* Snapshot at request 250 of the serve-heavy-shaped stream, restore,
   finish: the run equals the uninterrupted pin, and the snapshot bytes
   equal the pre-pruning ones — the opening walk's skip bound is derived
   state and stays out of the blob. *)
let test_large_resume () =
  let inst = heavy_instance () in
  let (module A : Omflp_core.Algo_intf.ALGO) = pd_fast in
  let env = Instance.env inst and cut = 250 in
  let t = A.create env in
  Array.iteri (fun i r -> if i < cut then ignore (A.step t r))
    inst.Instance.requests;
  let blob = A.snapshot t in
  Alcotest.(check string) "snapshot bytes" "bb8c8302a2debb401871f54cdc58a216"
    (md5 blob);
  let t' = A.restore env blob in
  Array.iteri (fun i r -> if i >= cut then ignore (A.step t' r))
    inst.Instance.requests;
  Alcotest.(check string) "resumed = uninterrupted"
    "c31ccaa190d616c89e89fa2a082b3c1a" (run_md5 (A.run_so_far t'))

let () =
  Alcotest.run "hotpath"
    [
      ( "dist_cache",
        [
          Alcotest.test_case "values" `Quick test_cache_values;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "bounds" `Quick test_cache_bounds;
        ] );
      ( "lazy_metrics",
        [
          Alcotest.test_case "line = dense" `Quick test_lazy_line_equals_dense;
          Alcotest.test_case "euclidean = dense" `Quick
            test_lazy_euclidean_equals_dense;
          Alcotest.test_case "uniform" `Quick test_lazy_uniform;
        ] );
      ( "nearest_index",
        [ QCheck_alcotest.to_alcotest prop_index_equals_scan ] );
      ( "simulator",
        [ Alcotest.test_case "run_many = run" `Quick test_run_many_equals_run ] );
      ( "golden",
        [
          Alcotest.test_case "run digests pinned" `Slow test_golden_digests;
          Alcotest.test_case "large-instance decisions pinned" `Quick
            test_large_pins;
          Alcotest.test_case "large-instance resume pinned" `Quick
            test_large_resume;
        ] );
    ]

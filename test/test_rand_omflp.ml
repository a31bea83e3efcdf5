open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_core

let check_float tol = Alcotest.(check (float tol))
let check_bool = Alcotest.(check bool)

let run_rand ?(seed = 1) inst =
  Simulator.run ~seed (module Rand_omflp) inst

let test_coverage_guarantee () =
  (* The validation inside Simulator.run already checks full coverage;
     exercise it across many seeds on one instance. *)
  let rng = Splitmix.of_int 5 in
  let inst =
    Generators.line rng ~n_sites:6 ~n_requests:15 ~n_commodities:5 ~length:20.0
      ~demand:(Demand.Bernoulli { p = 0.5 })
      ~cost:(fun ~n_commodities ~n_sites ->
        Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  for seed = 0 to 30 do
    ignore (run_rand ~seed inst)
  done

let test_seeded_determinism () =
  let rng = Splitmix.of_int 6 in
  let inst =
    Generators.line rng ~n_sites:5 ~n_requests:12 ~n_commodities:4 ~length:15.0
      ~demand:(Demand.Bernoulli { p = 0.5 })
      ~cost:(fun ~n_commodities ~n_sites ->
        Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let c1 = Run.total_cost (run_rand ~seed:7 inst) in
  let c2 = Run.total_cost (run_rand ~seed:7 inst) in
  check_float 1e-12 "same seed" c1 c2

let test_seeds_vary () =
  let rng = Splitmix.of_int 7 in
  let inst =
    Generators.line rng ~n_sites:8 ~n_requests:20 ~n_commodities:5 ~length:30.0
      ~demand:(Demand.Bernoulli { p = 0.5 })
      ~cost:(fun ~n_commodities ~n_sites ->
        Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let costs =
    List.init 10 (fun seed -> Run.total_cost (run_rand ~seed inst))
  in
  check_bool "randomness visible across seeds" true
    (List.length (List.sort_uniq compare costs) > 1)

let test_zero_cost_sites () =
  (* Free facilities everywhere: the algorithm must not crash on cost-0
     classes and should serve everything at distance ~0. *)
  let metric = Finite_metric.line [| 0.0; 2.0 |] in
  let cost = Cost_function.constant ~n_commodities:3 ~n_sites:2 ~cost:0.0 in
  let inst =
    Instance.make ~name:"free" ~metric ~cost
      ~requests:
        [|
          Request.make ~site:0 ~demand:(Cset.of_list ~n_commodities:3 [ 0; 1 ]);
          Request.make ~site:1 ~demand:(Cset.of_list ~n_commodities:3 [ 2 ]);
        |]
  in
  let run = run_rand inst in
  check_float 1e-9 "zero total" 0.0 (Run.total_cost run)

let test_single_site_single_request () =
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.linear ~n_commodities:2 ~n_sites:1 ~per_commodity:4.0 in
  let inst =
    Instance.make ~name:"one" ~metric ~cost
      ~requests:[| Request.make ~site:0 ~demand:(Cset.singleton ~n_commodities:2 0) |]
  in
  let run = run_rand inst in
  (* Must build something offering commodity 0; the cheapest possibility
     is one small facility: cost in [4, 8] (a large facility costs 8). *)
  check_bool "cost bounded" true
    (Run.total_cost run >= 4.0 -. 1e-9 && Run.total_cost run <= 8.0 +. 1e-9)

let test_expected_competitiveness_theorem2 () =
  (* Mean ratio over seeds on the |S'| = |S| regime should be far below
     the non-predicting sqrt|S| = 8 (INDEP pays exactly 8). *)
  let n_commodities = 64 in
  let rng = Splitmix.of_int 9 in
  let inst =
    Generators.single_point_adversary rng ~n_commodities
      ~cost:Cost_function.theorem2 ~n_requested:n_commodities
  in
  let opt = 8.0 in
  let reps = 15 in
  let total = ref 0.0 in
  for seed = 0 to reps - 1 do
    total := !total +. Run.total_cost (run_rand ~seed inst)
  done;
  let mean_ratio = !total /. float_of_int reps /. opt in
  check_bool "predicts large facilities" true (mean_ratio < 4.0)

let test_lemma20_balance_fresh_state () =
  (* Lemma 20: for a single arriving request the expected spend on small
     facilities and on large facilities each equal the assignment estimate
     min{X(r), Z(r)}. On a fresh state with one request the estimate is
     min over sites of (rounded cost + distance); the measured mean
     construction spend over many seeds must be close to twice that
     (small + large shares), within generous statistical slack. *)
  let metric = Finite_metric.line [| 0.0; 1.0; 3.0 |] in
  let cost = Cost_function.power_law ~n_commodities:4 ~n_sites:3 ~x:1.0 in
  let demand = Cset.of_list ~n_commodities:4 [ 0; 1 ] in
  let r = Request.make ~site:0 ~demand in
  (* X(r,e) per commodity: cheapest class build = rounded cost 1 at own
     site; X = 2. Z: rounded full cost 2 at distance 0; estimate =
     min(2, 2) = 2. *)
  let reps = 4000 in
  let total_construction = ref 0.0 in
  for seed = 0 to reps - 1 do
    let t = Rand_omflp.create ~seed (Problem_env.omflp metric cost) in
    ignore (Rand_omflp.step t r);
    total_construction :=
      !total_construction
      +. Facility_store.construction_cost (Rand_omflp.store t)
  done;
  let mean = !total_construction /. float_of_int reps in
  (* Expected small spend ~ estimate and large spend ~ estimate, but the
     service guarantee and probability clamping shift things; accept a
     generous [0.5, 3] x estimate band around 2*estimate = 4. *)
  check_bool
    (Printf.sprintf "mean construction %.3f within [2, 12]" mean)
    true
    (mean >= 2.0 && mean <= 12.0)

(* Distributional checks of the coin-flip law. On the one-point metric
   with constant construction cost [c], a fresh request with demand S has
   X(r,e) = c for each e in S, X(r) = c|S|, Z(r) = c, estimate = c; the
   single small class of commodity e flips with probability
   min(1, improvement / cls.cost * share) = min(1, (c/c) * (1/|S|)) =
   1/|S|, and the single large class flips with probability c/c = 1 — the
   large facility is always built, and the number of small facilities is
   Binomial(|S|, 1/|S|). *)
let small_flip_frequency ~n_commodities ~reps =
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.constant ~n_commodities ~n_sites:1 ~cost:4.0 in
  let demand =
    Cset.of_list ~n_commodities (List.init n_commodities Fun.id)
  in
  let r = Request.make ~site:0 ~demand in
  let smalls = ref 0 in
  for seed = 0 to reps - 1 do
    let t = Rand_omflp.create ~seed (Problem_env.omflp metric cost) in
    ignore (Rand_omflp.step t r);
    let run = Algo_intf.run_so_far (module Rand_omflp) t in
    Alcotest.(check int) "large facility always built" 1 (Run.n_large run);
    smalls := !smalls + Run.n_small run
  done;
  float_of_int !smalls /. float_of_int (reps * n_commodities)

let test_small_flip_frequency_half () =
  (* |S| = 2: per-commodity flip probability 1/2. 2000 trials x 2 flips;
     [0.46, 0.54] is a +-5 sigma band around the mean. *)
  let freq = small_flip_frequency ~n_commodities:2 ~reps:2000 in
  check_bool
    (Printf.sprintf "frequency %.4f within [0.46, 0.54]" freq)
    true
    (freq >= 0.46 && freq <= 0.54)

let test_small_flip_frequency_quarter () =
  (* |S| = 4: the share split X(r,e)/X(r) = 1/4 scales the probability
     down. 2000 trials x 4 flips; [0.22, 0.28] is a +-6 sigma band. *)
  let freq = small_flip_frequency ~n_commodities:4 ~reps:2000 in
  check_bool
    (Printf.sprintf "frequency %.4f within [0.22, 0.28]" freq)
    true
    (freq >= 0.22 && freq <= 0.28)

let test_rounding_factor_bound () =
  (* Rounding costs down to powers of two loses at most a factor 2: any
     facility's paid cost is at least its class cost and below twice it. *)
  let cost =
    Cost_function.site_scaled
      (Cost_function.power_law ~n_commodities:3 ~n_sites:4 ~x:1.0)
      [| 1.3; 2.7; 0.9; 5.1 |]
  in
  let classes = Omflp_commodity.Cost_classes.build cost in
  List.iter
    (fun key ->
      let cs = Omflp_commodity.Cost_classes.classes classes key in
      Array.iter
        (fun (c : Omflp_commodity.Cost_classes.cls) ->
          Array.iter
            (fun m ->
              let true_cost =
                match key with
                | Omflp_commodity.Cost_classes.Single e ->
                    Cost_function.singleton_cost cost m e
                | Omflp_commodity.Cost_classes.All ->
                    Cost_function.full_cost cost m
              in
              check_bool "within factor 2" true
                (c.cost <= true_cost +. 1e-9
                && true_cost < (2.0 *. c.cost) +. 1e-9))
            c.sites)
        cs)
    [
      Omflp_commodity.Cost_classes.Single 0;
      Omflp_commodity.Cost_classes.Single 2;
      Omflp_commodity.Cost_classes.All;
    ]

let prop_valid_across_families =
  QCheck.Test.make ~name:"validates across families and seeds" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Splitmix.of_int seed in
      let inst =
        match Splitmix.int rng 3 with
        | 0 ->
            Generators.theorem2 rng ~n_commodities:16
        | 1 ->
            Generators.network rng ~n_sites:6 ~extra_edges:3 ~n_requests:8
              ~n_commodities:4
              ~demand:(Demand.Bernoulli { p = 0.4 })
              ~cost:(fun ~n_commodities ~n_sites ->
                Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
        | _ ->
            Generators.clustered rng ~clusters:2 ~per_cluster:3 ~n_requests:8
              ~n_commodities:5 ~side:20.0 ~spread:1.0
              ~cost:(fun ~n_commodities ~n_sites ->
                Cost_function.theorem2 ~n_commodities ~n_sites)
      in
      let run = Simulator.run ~seed ~check:false (module Rand_omflp) inst in
      match Simulator.validate inst run with Ok () -> true | Error _ -> false)

let prop_cost_at_least_lp_bound =
  (* Any feasible online solution costs at least the LP lower bound. *)
  QCheck.Test.make ~name:"cost >= LP lower bound" ~count:20 QCheck.small_int
    (fun seed ->
      let rng = Splitmix.of_int (seed + 31) in
      let inst =
        Generators.line rng ~n_sites:3 ~n_requests:5 ~n_commodities:3
          ~length:8.0
          ~demand:(Demand.Bernoulli { p = 0.6 })
          ~cost:(fun ~n_commodities ~n_sites ->
            Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
      in
      let run = run_rand ~seed inst in
      let lb = Omflp_lp.Mflp_model.lp_lower_bound inst in
      Run.total_cost run >= lb -. 1e-6)

let () =
  Alcotest.run "rand_omflp"
    [
      ( "behaviour",
        [
          Alcotest.test_case "coverage over seeds" `Quick test_coverage_guarantee;
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
          Alcotest.test_case "seeds vary" `Quick test_seeds_vary;
          Alcotest.test_case "zero-cost sites" `Quick test_zero_cost_sites;
          Alcotest.test_case "single site" `Quick test_single_site_single_request;
          Alcotest.test_case "theorem2 expectation" `Quick
            test_expected_competitiveness_theorem2;
          Alcotest.test_case "Lemma 20 balance (statistical)" `Slow
            test_lemma20_balance_fresh_state;
          Alcotest.test_case "small-flip frequency 1/2 (statistical)" `Slow
            test_small_flip_frequency_half;
          Alcotest.test_case "small-flip frequency 1/4 (statistical)" `Slow
            test_small_flip_frequency_quarter;
          Alcotest.test_case "class rounding factor 2" `Quick
            test_rounding_factor_bound;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_valid_across_families;
          QCheck_alcotest.to_alcotest prop_cost_at_least_lp_bound;
        ] );
    ]

(* Inputs of every workload, generated from the run's seed (serve envs
   and request streams) or from fixed corpus seeds (certify, whose
   brackets are pinned). The program under test only ever sees the
   generated env file and request lines. *)

open Omflp_prelude
open Omflp_instance

(* What every workload reports with --trace 0. *)
type e2e = {
  setup_s : float;
  peak_rps : float;
  sustained_rps : float;
  lat_p50_ms : float;
  rss_mb : float;
}

let e2e_metrics e =
  [
    ("setup_s", "s", e.setup_s);
    ("peak_rps", "1/s", e.peak_rps);
    ("sustained_rps", "1/s", e.sustained_rps);
    ("lat_p50_ms", "ms", e.lat_p50_ms);
    ("rss_mb", "MB", e.rss_mb);
  ]

let power_law ~n_commodities ~n_sites =
  Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0

type serve_spec = {
  name : string;
  checkpoint : bool;
  session_len : int;  (** requests per session; every session is fresh *)
  peak_sessions : int;  (** sessions per connection in one closed-loop chunk *)
  ref_rate : float;  (** open-loop reference rate for lat_p50_ms (req/s) *)
  make : Splitmix.t -> n_requests:int -> Instance.t;
}

let light_env rng ~n_requests =
  Generators.uniform_metric rng ~n_sites:12 ~d:1.0 ~n_requests
    ~n_commodities:6
    ~demand:(Demand.Zipf_bundle { zipf_s = 1.0; max_size = 4 })
    ~cost:power_law

let heavy_env rng ~n_requests =
  Generators.clustered rng ~clusters:20 ~per_cluster:20 ~n_requests
    ~n_commodities:32 ~side:100.0 ~spread:2.0 ~cost:power_law

let serve_light =
  {
    name = "serve-light";
    checkpoint = false;
    session_len = 2000;
    peak_sessions = 4;
    ref_rate = 8000.0;
    make = light_env;
  }

let serve_durable =
  {
    serve_light with
    name = "serve-durable";
    checkpoint = true;
    session_len = 512;
    ref_rate = 2000.0;
  }

let serve_heavy =
  {
    name = "serve-heavy";
    checkpoint = false;
    session_len = 500;
    peak_sessions = 2;
    ref_rate = 1500.0;
    make = heavy_env;
  }

(* The env and a pool of requests come from a fixed per-workload seed,
   so every run serves the same env and the same request distribution;
   the run's seed draws each connection's stream from the pool. *)
let env_seed = 20200715
let pool_size = 20_000

let serve_inputs spec ~seed ~connections =
  let inst = spec.make (Splitmix.of_int env_seed) ~n_requests:pool_size in
  let rng = Splitmix.of_int seed in
  let streams =
    Array.init connections (fun _ ->
        Array.init spec.session_len (fun _ ->
            inst.Instance.requests.(Splitmix.int rng pool_size)))
  in
  (Instance.truncate inst 0, streams)

(* ---------- certify corpus ---------- *)

type corpus_class = Ilp_exact | Lp_relaxation | Above_cap

let class_name = function
  | Ilp_exact -> "ilp"
  | Lp_relaxation -> "lp"
  | Above_cap -> "above_cap"

type corpus_entry = { label : string; cls : corpus_class; inst : Instance.t }

(* [corpus ~full]: the timed corpus of the certify workload, plus (with
   [full]) the clustered 6-site/12-request |S|=5 model, whose 6 s LP
   would leave a timed run one or two samples; the traced run of certify
   measures it. *)
let corpus ~full =
  let rng seed = Splitmix.of_int seed in
  let line seed ~n_sites ~n_requests ~n_commodities =
    Generators.line (rng seed) ~n_sites ~n_requests ~n_commodities
      ~length:50.0
      ~demand:(Demand.Zipf_bundle { zipf_s = 1.0; max_size = 3 })
      ~cost:power_law
  in
  let clustered seed ~clusters ~per_cluster ~n_requests ~n_commodities =
    Generators.clustered (rng seed) ~clusters ~per_cluster ~n_requests
      ~n_commodities ~side:50.0 ~spread:2.0 ~cost:power_law
  in
  [
    { label = "ilp-line-5x10-s4"; cls = Ilp_exact;
      inst = line 11 ~n_sites:5 ~n_requests:10 ~n_commodities:4 };
    { label = "ilp-line-4x8-s3"; cls = Ilp_exact;
      inst = line 12 ~n_sites:4 ~n_requests:8 ~n_commodities:3 };
    { label = "ilp-clustered-2x2x10-s4"; cls = Ilp_exact;
      inst = clustered 13 ~clusters:2 ~per_cluster:2 ~n_requests:10
          ~n_commodities:4 };
    { label = "lp-line-4x8-s5"; cls = Lp_relaxation;
      inst = line 21 ~n_sites:4 ~n_requests:8 ~n_commodities:5 };
    { label = "lp-line-3x10-s5"; cls = Lp_relaxation;
      inst = line 22 ~n_sites:3 ~n_requests:10 ~n_commodities:5 };
    { label = "cap-line-10x30-s6"; cls = Above_cap;
      inst = line 31 ~n_sites:10 ~n_requests:30 ~n_commodities:6 };
    { label = "cap-clustered-3x4x30-s8"; cls = Above_cap;
      inst = clustered 32 ~clusters:3 ~per_cluster:4 ~n_requests:30
          ~n_commodities:8 };
    { label = "cap-line-8x20-s5"; cls = Above_cap;
      inst = line 33 ~n_sites:8 ~n_requests:20 ~n_commodities:5 };
  ]
  @
  if full then
    [ { label = "lp-clustered-2x3x12-s5"; cls = Lp_relaxation;
        inst = clustered 7 ~clusters:2 ~per_cluster:3 ~n_requests:12
            ~n_commodities:5 } ]
  else []

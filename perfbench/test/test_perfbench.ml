(* The benchmark's own pieces: exact quantiles, open-loop due times, and
   the decision comparator that gates every serve run. *)

open Perfbench_kit

let check_float msg a b = Alcotest.(check (float 0.0)) msg a b
let check_int msg a b = Alcotest.(check int) msg a b

let test_quantile_exact () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let q50 = Pb_stats.quantile xs 0.5 in
  check_float "p50 is the 50th smallest" 50.0 q50.Pb_stats.value;
  check_int "p50 sample count" 100 q50.Pb_stats.n;
  check_int "p50 beyond" 50 q50.Pb_stats.beyond;
  let q99 = Pb_stats.quantile xs 0.99 in
  check_float "p99" 99.0 q99.Pb_stats.value;
  check_int "p99 beyond" 1 q99.Pb_stats.beyond;
  check_float "p0 is the minimum" 1.0 (Pb_stats.quantile xs 0.0).Pb_stats.value;
  check_float "p100 is the maximum" 100.0
    (Pb_stats.quantile xs 1.0).Pb_stats.value;
  check_float "input untouched" 100.0 xs.(0)

let test_quantile_is_a_sample () =
  (* Factor-2 buckets would report 2^k midpoints; an exact quantile is
     always one of the samples. *)
  let xs = [| 0.088; 0.1; 0.13; 0.17; 0.3 |] in
  List.iter
    (fun q ->
      let v = (Pb_stats.quantile xs q).Pb_stats.value in
      Alcotest.(check bool) "value is a sample" true (Array.mem v xs))
    [ 0.1; 0.5; 0.9; 0.99 ];
  check_float "single sample" 7.0 (Pb_stats.median [| 7.0 |]);
  check_float "median of two is the lower" 1.0 (Pb_stats.median [| 2.0; 1.0 |])

let test_quantile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Pb_stats.quantile: no samples")
    (fun () -> ignore (Pb_stats.quantile [||] 0.5));
  Alcotest.check_raises "q > 1"
    (Invalid_argument "Pb_stats.quantile: q outside [0, 1]") (fun () ->
      ignore (Pb_stats.quantile [| 1.0 |] 1.5))

let test_schedule_due () =
  let s = Pb_schedule.create ~rate:1000.0 ~connections:2 in
  check_float "first request of conn 0" 0.0 (Pb_schedule.due s ~conn:0 ~index:0);
  check_float "first request of conn 1" 0.001 (Pb_schedule.due s ~conn:1 ~index:0);
  check_float "conn 0 request 3" 0.006 (Pb_schedule.due s ~conn:0 ~index:3);
  (* Aggregate arrivals are evenly spaced at 1/rate. *)
  let all =
    List.concat_map
      (fun i -> [ Pb_schedule.due s ~conn:0 ~index:i; Pb_schedule.due s ~conn:1 ~index:i ])
      (List.init 50 Fun.id)
  in
  List.iteri
    (fun k d -> Alcotest.(check (float 1e-12)) "evenly spaced" (float_of_int k /. 1000.0) d)
    all

let test_schedule_due_by () =
  let s = Pb_schedule.create ~rate:1000.0 ~connections:2 in
  check_int "nothing due before start" 0 (Pb_schedule.due_by s ~conn:0 ~elapsed:(-1.0));
  check_int "request 0 due at 0" 1 (Pb_schedule.due_by s ~conn:0 ~elapsed:0.0);
  check_int "conn 1 not yet" 0 (Pb_schedule.due_by s ~conn:1 ~elapsed:0.0005);
  (* due_by agrees with due on every boundary. *)
  for c = 0 to 1 do
    for i = 0 to 200 do
      let d = Pb_schedule.due s ~conn:c ~index:i in
      check_int "due_by at due" (i + 1) (Pb_schedule.due_by s ~conn:c ~elapsed:d);
      check_int "due_by just before due" i
        (Pb_schedule.due_by s ~conn:c ~elapsed:(d -. 1e-7))
    done
  done;
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Pb_schedule.create: rate must be > 0") (fun () ->
      ignore (Pb_schedule.create ~rate:0.0 ~connections:1))

let replay =
  [|
    {|{"index":0,"site":3,"demand":[0,2],"service":[[0,0]],"opened":[[0,3,[0,2]]],"construction":2,"assignment":0,"total":2}|};
    {|{"index":1,"site":1,"demand":[1],"service":[[1,1]],"opened":[[1,1,[1]]],"construction":3,"assignment":0,"total":3}|};
  |]

let served = Array.map (fun l ->
  String.sub l 0 (String.length l - 1) ^ {|,"latency_s":0.000012}|}) replay

let test_comparator_accepts () =
  Alcotest.(check (option int)) "served = replay" None
    (Pb_compare.first_mismatch ~expected:replay served);
  Alcotest.(check string) "canonical strips latency" replay.(0)
    (Pb_compare.canonical served.(0));
  Alcotest.(check string) "canonical keeps a canonical line" replay.(1)
    (Pb_compare.canonical replay.(1))

let test_comparator_rejects_mutation () =
  let mutated = Array.copy served in
  (* One digit of one cost field. *)
  let l = mutated.(1) in
  let i = String.rindex l '3' in
  mutated.(1) <- String.sub l 0 i ^ "4" ^ String.sub l (i + 1) (String.length l - i - 1);
  Alcotest.(check (option int)) "mutated line found" (Some 1)
    (Pb_compare.first_mismatch ~expected:replay mutated);
  Alcotest.(check (option int)) "missing line found" (Some 1)
    (Pb_compare.first_mismatch ~expected:replay [| served.(0) |]);
  Alcotest.(check bool) "latency field alone is not enough" false
    (Pb_compare.matches ~expected:replay.(0) (replay.(0) ^ " "));
  (* [matches] is [canonical] followed by equality, without the copy. *)
  Array.iter
    (fun l ->
      Array.iter
        (fun e ->
          Alcotest.(check bool) "matches agrees with canonical"
            (String.equal (Pb_compare.canonical l) e)
            (Pb_compare.matches ~expected:e l))
        replay)
    (Array.concat [ served; mutated; replay ])

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "exact nearest rank" `Quick test_quantile_exact;
          Alcotest.test_case "value is a sample" `Quick test_quantile_is_a_sample;
          Alcotest.test_case "rejects bad input" `Quick test_quantile_rejects;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "due times" `Quick test_schedule_due;
          Alcotest.test_case "due_by agrees with due" `Quick test_schedule_due_by;
        ] );
      ( "comparator",
        [
          Alcotest.test_case "accepts a faithful stream" `Quick test_comparator_accepts;
          Alcotest.test_case "rejects one mutated line" `Quick
            test_comparator_rejects_mutation;
        ] );
    ]

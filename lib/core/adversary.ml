open Omflp_commodity
open Omflp_metric
open Omflp_instance

type outcome = {
  run : Run.t;
  realized : Instance.t;
  zoom_point : int;
}

let zoom_line ?(batch_base = 2) ?(facility_cost = 1.0) ?(n_commodities = 1)
    ?seed ~levels (module A : Algo_intf.ALGO) =
  if levels < 1 || levels > 14 then
    invalid_arg "Adversary.zoom_line: levels must lie in [1, 14]";
  if facility_cost <= 0.0 then
    invalid_arg "Adversary.zoom_line: facility cost must be positive";
  let n_points = (1 lsl levels) + 1 in
  let positions = Array.init n_points (fun j -> float_of_int j /. float_of_int (n_points - 1)) in
  let metric = Finite_metric.line positions in
  (* Uniform size-based cost: every non-empty configuration costs
     [facility_cost] (commodity 0 is all anyone asks for, so richer
     configurations would only cost more under other families). *)
  let cost =
    Cost_function.constant ~n_commodities ~n_sites:n_points ~cost:facility_cost
  in
  let t = A.create ?seed (Problem_env.omflp metric cost) in
  let demand = Cset.singleton ~n_commodities 0 in
  let requests_rev = ref [] in
  let send site =
    let r = Request.make ~site ~demand in
    requests_rev := r :: !requests_rev;
    ignore (A.step t r)
  in
  (* Current dyadic interval as point indices [lo, hi]. *)
  let lo = ref 0 and hi = ref (n_points - 1) in
  for l = 0 to levels - 1 do
    let mid = (!lo + !hi) / 2 in
    let batch = batch_base * (1 lsl l) in
    for _ = 1 to batch do
      send mid
    done;
    (* Zoom into the half whose midpoint is farther from every facility
       the algorithm has opened so far. *)
    let run = Algo_intf.run_so_far (module A) t in
    let dist_to_facilities site =
      List.fold_left
        (fun acc (f : Facility.t) ->
          Float.min acc (Finite_metric.dist metric site f.site))
        infinity run.Run.facilities
    in
    let left_mid = (!lo + mid) / 2 and right_mid = (mid + !hi) / 2 in
    if dist_to_facilities left_mid >= dist_to_facilities right_mid then
      hi := mid
    else lo := mid
  done;
  (* Final concentrated batch at the zoom point. *)
  let final = (!lo + !hi) / 2 in
  for _ = 1 to batch_base * (1 lsl levels) do
    send final
  done;
  let run = Algo_intf.run_so_far (module A) t in
  let realized =
    Instance.make ~name:(Printf.sprintf "zoom-line(levels=%d)" levels) ~metric
      ~cost
      ~requests:(Array.of_list (List.rev !requests_rev))
  in
  { run; realized; zoom_point = final }

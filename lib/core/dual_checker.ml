open Omflp_prelude
open Omflp_commodity

let gamma ~n_commodities ~n_requests =
  1.0
  /. (5.0
     *. sqrt (float_of_int n_commodities)
     *. Numerics.harmonic (max 1 n_requests))

let corollary8 t =
  let run = Algo_intf.run_so_far (module Pd_omflp) t in
  let cost = Run.total_cost run in
  let duals = Pd_omflp.dual_objective t in
  if Numerics.approx_le ~tol:1e-6 cost (3.0 *. duals) then Ok ()
  else
    Error
      (Printf.sprintf "Corollary 8 violated: cost %.9g > 3 * duals %.9g" cost
         (3.0 *. duals))

let exhaustive_limit = 10

let default_configs ~n_commodities =
  if n_commodities <= exhaustive_limit then
    Cset.all_nonempty_subsets ~n_commodities
  else
    Cset.full ~n_commodities
    :: List.init n_commodities (fun e -> Cset.singleton ~n_commodities e)

let scaled_dual_feasible ?configs ?scale metric cost records =
  let n_commodities = Cost_function.n_commodities cost in
  let n_requests = List.length records in
  let scale =
    match scale with
    | Some s -> s
    | None -> gamma ~n_commodities ~n_requests
  in
  let configs =
    match configs with Some cs -> cs | None -> default_configs ~n_commodities
  in
  let n_sites = Omflp_metric.Finite_metric.size metric in
  let violation = ref None in
  (try
     List.iter
       (fun sigma ->
         for m = 0 to n_sites - 1 do
           let lhs =
             List.fold_left
               (fun acc (p : Pd_omflp.dual_record) ->
                 let dual_part =
                   Cset.fold
                     (fun e s ->
                       if Cset.mem sigma e then s +. (scale *. p.duals.(e))
                       else s)
                     p.demand 0.0
                 in
                 acc
                 +. Numerics.pos
                      (dual_part -. Omflp_metric.Finite_metric.dist metric m p.site))
               0.0 records
           in
           if not (Numerics.approx_le ~tol:1e-6 lhs (Cost_function.eval cost m sigma))
           then begin
             violation := Some (m, sigma);
             raise Exit
           end
         done)
       configs
   with Exit -> ());
  match !violation with None -> Ok () | Some v -> Error v

let dual_lower_bound t =
  let records = Pd_omflp.dual_records t in
  let n_requests = List.length records in
  match records with
  | [] -> 0.0
  | p :: _ ->
      let n_commodities = Cset.n_commodities p.demand in
      gamma ~n_commodities ~n_requests *. Pd_omflp.dual_objective t

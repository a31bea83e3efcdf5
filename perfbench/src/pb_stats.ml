type quantile = { q : float; value : float; n : int; beyond : int }

let rank ~n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let of_sorted sorted q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Pb_stats.quantile: q outside [0, 1]";
  let n = Array.length sorted in
  let k = min n (rank ~n q) in
  { q; value = sorted.(k - 1); n; beyond = n - k }

let sorted_copy xs =
  if Array.length xs = 0 then invalid_arg "Pb_stats.quantile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let quantiles xs qs =
  let s = sorted_copy xs in
  List.map (of_sorted s) qs

let quantile xs q = of_sorted (sorted_copy xs) q

let median xs = (quantile xs 0.5).value

let mean xs =
  if Array.length xs = 0 then invalid_arg "Pb_stats.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

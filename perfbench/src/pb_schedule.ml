type t = { rate : float; connections : int }

let create ~rate ~connections =
  if not (rate > 0.0) then invalid_arg "Pb_schedule.create: rate must be > 0";
  if connections < 1 then
    invalid_arg "Pb_schedule.create: connections must be >= 1";
  { rate; connections }

let rate t = t.rate

let due t ~conn ~index =
  float_of_int ((index * t.connections) + conn) /. t.rate

let due_by t ~conn ~elapsed =
  if elapsed < 0.0 then 0
  else
    (* Largest g with (g * k + conn) / rate <= elapsed, plus one; the
       float estimate is corrected against [due] so the count agrees with
       it exactly. *)
    let k = t.connections in
    let g = int_of_float (Float.floor (((elapsed *. t.rate) -. float_of_int conn) /. float_of_int k)) in
    let g = ref (max (-1) g) in
    while !g >= 0 && due t ~conn ~index:!g > elapsed do decr g done;
    while due t ~conn ~index:(!g + 1) <= elapsed do incr g done;
    !g + 1

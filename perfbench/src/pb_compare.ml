let latency_key = ",\"latency_s\":"

(* Start of the trailing latency field, if the line ends with one: the
   field is always the last one the server writes, so only the last comma
   can begin it. *)
let latency_start line =
  match String.rindex_opt line ',' with
  | None -> None
  | Some i ->
      let m = String.length latency_key in
      let n = String.length line in
      if i + m <= n && line.[n - 1] = '}' && String.sub line i m = latency_key
      then Some i
      else None

let canonical line =
  match latency_start line with
  | None -> line
  | Some i -> String.sub line 0 i ^ "}"

(* [canonical line = expected] without building the canonical string:
   this runs once per received decision, inside the load generator. *)
let matches ~expected line =
  match latency_start line with
  | None -> String.equal line expected
  | Some i ->
      let n = String.length expected in
      n = i + 1
      && expected.[i] = '}'
      &&
      let rec same k = k >= i || (line.[k] = expected.[k] && same (k + 1)) in
      same 0

let first_mismatch ~expected lines =
  let n = min (Array.length expected) (Array.length lines) in
  let rec go i =
    if i >= n then
      if Array.length expected = Array.length lines then None else Some n
    else if matches ~expected:expected.(i) lines.(i) then go (i + 1)
    else Some i
  in
  go 0

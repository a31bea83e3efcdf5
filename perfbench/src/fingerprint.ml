(* Machine fingerprint printed with every result, so figures from
   different machines are never compared unknowingly. *)

let cpu_model () =
  match
    Array.find_opt
      (fun l -> String.length l > 10 && String.sub l 0 10 = "model name")
      (Util.read_lines "/proc/cpuinfo")
  with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"
  | exception Sys_error _ -> "unknown"

let nproc () =
  match Util.read_lines "/proc/cpuinfo" with
  | lines ->
      Array.fold_left
        (fun n l ->
          if String.length l > 9 && String.sub l 0 9 = "processor" then n + 1
          else n)
        0 lines
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* Filesystem type of [dir]: the /proc/mounts entry with the longest
   mount point that is a prefix of [dir]'s absolute path. *)
let fs_type dir =
  let abs =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  let is_prefix p =
    p = "/"
    || String.length abs >= String.length p
       && String.sub abs 0 (String.length p) = p
       && (String.length abs = String.length p || abs.[String.length p] = '/')
  in
  match Util.read_lines "/proc/mounts" with
  | lines ->
      let best = ref ("", "unknown") in
      Array.iter
        (fun l ->
          match String.split_on_char ' ' l with
          | _ :: mnt :: ty :: _
            when is_prefix mnt && String.length mnt >= String.length (fst !best) ->
              best := (mnt, ty)
          | _ -> ())
        lines;
      snd !best
  | exception Sys_error _ -> "unknown"

(* A fixed integer loop: its time tracks the machine's single-core speed
   and current contention, independent of the program under test. *)
let calibration_ms () =
  let run () =
    let x = ref 0x2545F491 in
    for _ = 1 to 20_000_000 do
      x := (!x * 1103515245) + 12345;
      x := !x lxor (!x lsr 17)
    done;
    !x
  in
  let samples =
    Array.init 3 (fun _ ->
        let r, dt = Util.time run in
        ignore (Sys.opaque_identity r);
        dt *. 1000.0)
  in
  Perfbench_kit.Pb_stats.median samples

let to_json ~checkpoint_dir =
  Printf.sprintf
    {|{"nproc":%d,"cpu_model":%s,"ocaml":%s,"checkpoint_fs":%s,"calibration_ms":%.4f}|}
    (nproc ()) (Util.json_str (cpu_model ())) (Util.json_str Sys.ocaml_version)
    (Util.json_str (fs_type checkpoint_dir))
    (calibration_ms ())

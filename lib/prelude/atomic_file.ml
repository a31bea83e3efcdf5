(* Crash-safe file replacement: write into a temporary file in the same
   directory, flush, then rename over the destination. POSIX rename
   within one directory is atomic, so readers see either the old complete
   file or the new complete file — never a torn prefix. *)

let write path writer =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path ^ ".") ".tmp"
  in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !ok then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          writer oc;
          flush oc);
      Sys.rename tmp path;
      ok := true)

let write_string path s = write path (fun oc -> output_string oc s)

(* Clock, process and file helpers shared by the benchmark's parts. *)

(* Monotonic wall clock in seconds (CLOCK_MONOTONIC, ns resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let fail fmt = Printf.ksprintf failwith fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  let s = read_file path in
  if s = "" then [||]
  else
    let s =
      if s.[String.length s - 1] = '\n' then String.sub s 0 (String.length s - 1)
      else s
    in
    Array.of_list (String.split_on_char '\n' s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Sum of the sizes of the regular files under [path]. *)
let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + du (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

(* "VmHWM:   12345 kB" from /proc/PID/status, in MiB. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let line =
    Array.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines path)
  in
  match line with
  | None -> fail "no VmHWM in %s" path
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)

(* A child process's stdout/stderr go to [log]; [stop] ends it and waits
   for it, so no benchmark process outlives the run. *)
type child = { pid : int; mutable alive : bool }

let spawn ~log prog args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close devnull)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) devnull fd fd)
  in
  { pid; alive = true }

let stop child =
  if child.alive then begin
    child.alive <- false;
    (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] child.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

(* Connect to a Unix-domain socket, retrying while the listener is not up
   yet; gives up after [timeout] seconds. *)
let connect_unix ?(timeout = 10.0) path =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | ECONNREFUSED | EAGAIN), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

(* Blocking line reader over a socket, with a deadline per line. *)
type line_reader = {
  rfd : Unix.file_descr;
  chunk : Bytes.t;
  pending : Buffer.t;
  lines : string Queue.t;
  mutable eof : bool;
}

let line_reader fd =
  { rfd = fd; chunk = Bytes.create 65536; pending = Buffer.create 256;
    lines = Queue.create (); eof = false }

(* Split [n] fresh bytes of [r.chunk] into complete lines. *)
let feed r n =
  for i = 0 to n - 1 do
    let ch = Bytes.unsafe_get r.chunk i in
    if ch = '\n' then begin
      Queue.push (Buffer.contents r.pending) r.lines;
      Buffer.clear r.pending
    end
    else Buffer.add_char r.pending ch
  done

let read_line ?(timeout = 30.0) r =
  let deadline = now () +. timeout in
  let rec go () =
    if not (Queue.is_empty r.lines) then Some (Queue.pop r.lines)
    else if r.eof then None
    else
      let left = deadline -. now () in
      if left <= 0.0 then fail "timed out waiting for a line";
      match Unix.select [ r.rfd ] [] [] left with
      | [], _, _ -> go ()
      | _ ->
          let n = Unix.read r.rfd r.chunk 0 (Bytes.length r.chunk) in
          if n = 0 then r.eof <- true else feed r n;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send_line fd line = write_all fd (line ^ "\n") 0 (String.length line + 1)

(* A JSON string literal. *)
let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Listen-address plumbing shared by the server, the load generator, and
   the tests: one textual address syntax — a filesystem path means a
   Unix-domain socket, HOST:PORT means TCP — parsed once, used for both
   [listen] and [connect]. *)

type addr = Unix_sock of string | Tcp of Unix.inet_addr * int

let pp_addr = function
  | Unix_sock path -> path
  | Tcp (host, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

(* The portable sockaddr_un payload is ~104 bytes; refuse paths that
   would be silently truncated. *)
let max_unix_path = 100

let resolve_host host =
  if host = "" then Ok Unix.inet_addr_any
  else if host = "localhost" then Ok Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string host with
    | a -> Ok a
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
            Error (Printf.sprintf "cannot resolve host %S" host)
        | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0))

let parse s =
  if s = "" then Error "empty listen address"
  else
    match String.rindex_opt s ':' with
    | None ->
        if String.length s > max_unix_path then
          Error
            (Printf.sprintf
               "unix socket path is %d bytes; the OS limit is about %d"
               (String.length s) max_unix_path)
        else Ok (Unix_sock s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_s with
        | Some port when port >= 1 && port <= 65535 ->
            Result.map (fun h -> Tcp (h, port)) (resolve_host host)
        | _ ->
            Error
              (Printf.sprintf
                 "bad address %S (use a socket PATH without ':' or \
                  HOST:PORT with port in [1,65535])"
                 s))

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (host, port)

let socket_for = function
  | Unix_sock _ -> Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Tcp _ -> Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0

let fail fmt = Printf.ksprintf failwith fmt

let listen addr =
  (match addr with
  | Unix_sock path when Sys.file_exists path ->
      (* A SIGKILLed server leaves its socket file behind; replace it —
         but only a socket, never a regular file someone pointed us at. *)
      if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
      else
        fail "Listener.listen: %s exists and is not a socket (refusing to \
              replace it)"
          path
  | _ -> ());
  let fd = socket_for addr in
  (try
     (match addr with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_sock _ -> ());
     Unix.bind fd (sockaddr addr);
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (match e with
     | Unix.Unix_error (err, _, _) ->
         fail "Listener.listen: cannot listen on %s: %s" (pp_addr addr)
           (Unix.error_message err)
     | e -> raise e));
  fd

(* Request and decision lines are small writes answered by the peer:
   with Nagle's algorithm on, a write waiting for an ACK that the peer
   delays costs ~40 ms. Both ends of a TCP stream turn it off. *)
let setup_stream addr fd =
  match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix_sock _ -> ()

let connect_addr addr =
  let fd = socket_for addr in
  try
    Unix.connect fd (sockaddr addr);
    setup_stream addr fd;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (match e with
    | Unix.Unix_error (err, _, _) ->
        fail "Listener.connect: cannot connect to %s: %s" (pp_addr addr)
          (Unix.error_message err)
    | e -> raise e)

let connect s =
  match parse s with
  | Error e -> fail "Listener.connect: %s" e
  | Ok addr -> connect_addr addr

let cleanup addr =
  match addr with
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()

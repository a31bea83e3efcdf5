(** Listen-address parsing and socket setup shared by {!Server}, the
    load generator, and the tests.

    One textual syntax: a string without [':'] is a Unix-domain socket
    path; [HOST:PORT] is TCP ([HOST] empty for any-interface,
    ["localhost"], a dotted quad, or a resolvable name). *)

type addr = Unix_sock of string | Tcp of Unix.inet_addr * int

val parse : string -> (addr, string) result

val pp_addr : addr -> string

(** [listen addr] binds and listens (backlog 128). A stale socket file
    left by a killed server is replaced; anything else at that path is a
    named [Failure]. TCP listeners set [SO_REUSEADDR]. *)
val listen : addr -> Unix.file_descr

(** [setup_stream addr fd] sets the per-connection socket options on a
    connected stream [fd] of [addr], accepted or connected:
    [TCP_NODELAY] on TCP, nothing on Unix-domain sockets. *)
val setup_stream : addr -> Unix.file_descr -> unit

(** [connect s] parses [s] and connects a client socket (set up by
    {!setup_stream}). Raises [Failure] with a named message on bad addresses or
    connection errors. *)
val connect : string -> Unix.file_descr

val connect_addr : addr -> Unix.file_descr

(** [cleanup addr] removes the socket file of a Unix-domain listener;
    no-op for TCP. *)
val cleanup : addr -> unit

(** Open-loop send schedule.

    [connections] connections share one aggregate rate: request [g] of
    connection [c] is due at [(g * connections + c) / rate] seconds after
    the schedule starts, so the connections interleave evenly and the
    aggregate arrivals are spaced [1 / rate] apart. Latency is measured
    from this due time, never from the moment the request was actually
    written, so a stall on the sending side is charged to every request
    it delays. *)

type t

(** Raises [Invalid_argument] unless [rate > 0] and [connections >= 1]. *)
val create : rate:float -> connections:int -> t

val rate : t -> float

(** [due t ~conn ~index] is the offset (seconds) at which request [index]
    of connection [conn] is due. *)
val due : t -> conn:int -> index:int -> float

(** [due_by t ~conn ~elapsed] is how many of connection [conn]'s requests
    are due once [elapsed] seconds have passed. *)
val due_by : t -> conn:int -> elapsed:float -> int

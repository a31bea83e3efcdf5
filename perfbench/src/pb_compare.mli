(** Checking served decision lines against an in-process replay.

    The server appends [,"latency_s":...] to every decision it streams;
    the replay's lines are the canonical encoding without it. A served
    line is correct when, with that field removed, it is byte-identical to
    the replay's line for the same request. *)

(** [canonical line] removes a trailing [,"latency_s":<number>] field, if
    present, keeping the closing brace. *)
val canonical : string -> string

(** [matches ~expected line] is [canonical line = expected]. *)
val matches : expected:string -> string -> bool

(** [first_mismatch ~expected lines] is the index of the first line of
    [lines] that does not match [expected] at the same index, or of the
    first missing/extra line; [None] when both agree line for line. *)
val first_mismatch : expected:string array -> string array -> int option

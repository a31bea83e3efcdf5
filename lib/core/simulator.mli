(** Online simulation engine: feed a request sequence to an algorithm,
    validate every decision, and produce the final {!Run}. *)

(** [validate instance run] re-derives feasibility and cost from first
    principles: every request's service covers its demand using facilities
    open at the time, and the reported construction/assignment costs match
    a recomputation. [Ok ()] or a human-readable error. *)
val validate : Omflp_instance.Instance.t -> Run.t -> (unit, string) result

(** [run ?seed ?check algo instance] executes the full sequence.
    With [check] (default [true]) the run is validated and [Failure] is
    raised on violation — an algorithm bug, never an input property. *)
val run :
  ?seed:int ->
  ?check:bool ->
  (module Algo_intf.ALGO) ->
  Omflp_instance.Instance.t ->
  Run.t

(** [run_all ?seed instance] runs every canonical algorithm of the
    instance's family through {!run}. *)
val run_all :
  ?seed:int -> Omflp_instance.Instance.t -> (string * Run.t) list

(** PD-OMFLP with incremental bid maintenance — the same algorithm as
    {!Pd_omflp} (identical decisions up to floating-point summation
    order), with per-request work reduced from O(|s_r|·|M|·n) to
    amortized O((|s_r| + opened)·|M|). *)

type t = Pd_omflp.t

val name : string
val family : Omflp_instance.Problem_env.Family.t

val create : ?seed:int -> Omflp_instance.Problem_env.t -> t

val step : t -> Omflp_instance.Request.t -> Service.t

val store : t -> Facility_store.t

(** {!Pd_omflp.snapshot} / {!Pd_omflp.restore_incremental}: blobs are
    shared with the recomputing module but mode-checked on restore. *)
val snapshot : t -> string

val restore : Omflp_instance.Problem_env.t -> string -> t

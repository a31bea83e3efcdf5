type t = Pd_omflp.t

let name = "PD-OMFLP-FAST"

let family = Pd_omflp.family
let create ?seed env = Pd_omflp.create_incremental ?seed env

let step = Pd_omflp.step

let store = Pd_omflp.store

let snapshot = Pd_omflp.snapshot

let restore = Pd_omflp.restore_incremental

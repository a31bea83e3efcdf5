(** Exact quantiles over raw samples.

    Every quantile the benchmark reports comes from here: the samples are
    sorted and the nearest-rank element is returned, so the value is one
    of the measured samples and carries no bucketing error. Each summary
    states how many samples it was taken over and how many lie above the
    reported rank. *)

type quantile = {
  q : float;  (** requested quantile, in [0, 1] *)
  value : float;  (** the sample at rank [ceil (q * n)] (1-based, >= 1) *)
  n : int;  (** number of samples *)
  beyond : int;  (** samples ranked above [value] ([n - rank]) *)
}

(** [quantile xs q] is the nearest-rank [q]-quantile of [xs]. [xs] is not
    modified. Raises [Invalid_argument] on an empty array or [q] outside
    [0, 1]. *)
val quantile : float array -> float -> quantile

(** [quantiles xs qs] sorts once and answers every [q] in [qs]. *)
val quantiles : float array -> float list -> quantile list

(** [median xs] is [(quantile xs 0.5).value]. *)
val median : float array -> float

val mean : float array -> float

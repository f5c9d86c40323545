(** Small descriptive-statistics helpers used by the experiment reports. *)

val mean : float list -> float
(** Arithmetic mean; [nan] on an empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; [nan] on an empty list. *)

val stdev : float list -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    values. *)

val minimum : float list -> float
val maximum : float list -> float

val median : float list -> float

val quantile : float -> float list -> float
(** [quantile q xs] with [q] in [\[0,1\]], linear interpolation between order
    statistics. *)

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  median : float;
  max : float;
}

val summarize : float list -> summary

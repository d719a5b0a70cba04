(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1); 0 when n < 2 *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val of_array : float array -> t
(** Raises [Invalid_argument] on an empty array. *)

val of_list : float list -> t

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0, 100\]]; linear
    interpolation between order statistics. The array must be sorted. *)

val mean : float array -> float
val stddev : float array -> float


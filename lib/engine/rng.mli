(** Deterministic pseudo-random number generation.

    A SplitMix64 generator: tiny state, excellent statistical quality
    for simulation purposes, and cheap [split]ting so that independent
    components (flow arrival process, ECMP port randomisation, traffic
    matrix shuffling, ...) each get their own stream and stay
    reproducible regardless of the order in which they draw. *)

type t

val create : seed:int -> t

val split : t -> t
(** A new generator whose stream is independent of (and deterministic
    given) the parent's current state. *)

(** {1 Draws} *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (for Poisson
    inter-arrival times). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val derangement : t -> int -> int array
(** [derangement t n] is a uniform-ish random permutation of [0..n-1]
    with no fixed point (used for permutation traffic matrices, where a
    host must never send to itself). For [n = 1] the identity is
    returned since no derangement exists. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

(** Fixed-width histograms (for FCT distributions à la Figure 1(b/c)). *)

type t

val create : lo:float -> hi:float -> buckets:int -> t
(** Values below [lo] land in the first bucket, values at or above
    [hi] in a dedicated overflow bucket. *)

val add : t -> float -> unit
val count : t -> int
val bucket_counts : t -> int array
(** [buckets + 1] entries; the last is the overflow bucket. *)

val bucket_bounds : t -> int -> float * float
(** Bounds of bucket [i]; the overflow bucket is [(hi, infinity)]. *)

val overflow : t -> int

val merge : t -> t -> t
(** [merge a b] is a fresh histogram whose counts are the bucket-wise
    sum of [a] and [b]. Both inputs are left untouched.

    @raise Invalid_argument if the two histograms disagree on [lo],
    [hi] or [buckets] — bucket-wise addition is only meaningful over
    an identical layout. *)

val render : t -> string
(** ASCII rendering, one line per non-empty bucket; the fullest
    bucket's bar is 50 characters wide. *)

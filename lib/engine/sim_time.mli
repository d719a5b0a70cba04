(** Virtual simulation time.

    Time is an absolute count of nanoseconds since the start of the
    simulation, stored as a native [int] (63 bits holds ~146 years of
    nanoseconds). The native representation is deliberate: unlike
    [int64] it is unboxed, so times held in scheduler entries and
    packet records are immediate words and hot-path arithmetic does
    not allocate. All public constructors and accessors go through
    this module so that the unit is impossible to confuse at call
    sites. *)

type t = private int

val zero : t

val is_zero : t -> bool

(** {1 Constructors} *)

val of_ns : int -> t
(** [of_ns n] is [n] nanoseconds. Raises [Invalid_argument] if [n < 0]. *)

val of_us : float -> t
val of_ms : float -> t
val of_sec : float -> t

(** {1 Accessors} *)

val to_ns : t -> int
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

(** {1 Arithmetic} *)

val add : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val scale : t -> float -> t
(** [scale t f] multiplies a duration by a non-negative factor. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val to_string : t -> string
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

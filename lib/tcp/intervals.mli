(** Sets of disjoint half-open byte ranges.

    Used by subflow receivers to track out-of-order arrivals and to
    tell new bytes from duplicates. Ranges are normalised: disjoint,
    non-adjacent, sorted. *)

type t

val create : unit -> t

val add : t -> start:int -> stop:int -> int
(** Insert [\[start, stop)]; returns the number of bytes that were not
    already covered. Raises [Invalid_argument] if [stop < start]. *)

val contiguous_from : t -> int -> int
(** [contiguous_from t x] is the largest [y >= x] with [\[x, y)] fully
    covered ([x] itself if [x] is uncovered). *)

val span_count : t -> int

val fill_above : t -> above:int -> max_blocks:int -> dst:int array -> int
(** [fill_above t ~above ~max_blocks ~dst] writes the first
    [max_blocks] ranges whose start exceeds [above] into [dst] as
    flattened pairs (range [i] at [dst.(2i), dst.(2i+1)]) and returns
    how many it wrote. Allocation-free: this is the receive path's
    SACK-block encoder, writing straight into a packet's scratch
    array. *)

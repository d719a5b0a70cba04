(** Topology layer tags.

    Every queue/link is tagged with the layer of the device that
    transmits into it, so experiments can report per-layer statistics
    (the paper reports loss rates "at the core and aggregation
    layers"). *)

type t = Host_layer | Edge_layer | Agg_layer | Core_layer

val to_string : t -> string
val equal : t -> t -> bool

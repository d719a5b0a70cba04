(** Host addresses.

    An address is an opaque host identifier. Topologies define the
    mapping from addresses to physical positions (e.g. the FatTree
    [pod.edge.index] scheme from Al-Fares et al., which MMPTCP's
    topology-aware dup-ACK heuristic exploits to count equal-cost
    paths). *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] on negative ids. *)

val to_int : t -> int
val equal : t -> t -> bool

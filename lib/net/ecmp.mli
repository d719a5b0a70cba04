(** Hash-based equal-cost multi-path selection.

    Switches hash the 5-tuple of each packet to pick among equal-cost
    next hops, as in RFC 2992-style ECMP. The hash is deterministic, so
    all packets of a (src, dst, sport, dport) flow follow one path —
    which is exactly why per-packet source-port randomisation in
    MMPTCP's packet-scatter phase sprays packets across all paths. *)

val hash_fields :
  src:int -> dst:int -> sport:int -> dport:int -> salt:int -> int
(** The stable SplitMix64-style hash underlying {!flow_hash} and
    {!select}. Deliberately NOT [Hashtbl.hash] (simlint rule D003):
    the polymorphic hash may change between compiler releases, which
    would silently re-route every sprayed packet and change every
    figure. This function is pure integer arithmetic; golden tests pin
    its exact values so a behaviour change cannot land unnoticed. *)

val flow_hash : Packet.t -> int
(** Non-negative hash of the packet's 5-tuple. *)

val select : Packet.t -> salt:int -> n:int -> int
(** [select pkt ~salt ~n] picks an index in [\[0, n)]. [salt] decorrelates
    the choice made by different switches on the same flow (real
    switches use distinct hash seeds; without this, hash polarisation
    would collapse path diversity). *)

val pick : Packet.t -> salt:int -> 'a array -> 'a
(** [pick pkt ~salt xs] is [xs.(select pkt ~salt ~n)] with
    [n = Array.length xs]; a one-element array needs no hash. *)

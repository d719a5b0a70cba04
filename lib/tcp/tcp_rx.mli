(** TCP receiver endpoint (one subflow).

    Answers SYNs with SYN-ACKs and acknowledges every data arrival at
    once with a cumulative ACK, sent on the ports of the segment it
    answers. Reassembly keeps [rcv_nxt] and the sorted list of spans
    received above it; the ACK's SACK blocks are the lowest three of
    those spans. Duplicate data arrivals set the [dup_seen] flag on the
    ACK (a DSACK stand-in that adaptive dup-ACK-threshold senders can
    exploit, cf. RR-TCP). A receiver holds no timer.

    The receive window is unbounded — data-centre receivers are not the
    bottleneck in any of the paper's experiments. *)

type t

val create :
  host:Sim_net.Host.t ->
  peer:Sim_net.Addr.t ->
  conn:int ->
  subflow:int ->
  on_data:(dsn:int -> len:int -> unit) ->
  unit ->
  t
(** [on_data] fires once per segment, on the arrival that first brings
    its bytes, with the segment's data-level sequence. Duplicates are
    acknowledged but not passed on, so the data level can count bytes
    without deduping them again. In the dev profile [handle] fails on
    an arrival that is partly new and partly a duplicate, and when the
    spans above [rcv_nxt] are not sorted, disjoint and non-adjacent. *)

val handle : t -> Sim_net.Packet.t -> unit
val rcv_nxt : t -> int
val dup_segments : t -> int

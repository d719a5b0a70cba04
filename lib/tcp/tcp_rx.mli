(** TCP receiver endpoint (one subflow).

    Answers SYNs with SYN-ACKs, buffers out-of-order data, and
    acknowledges every data arrival at once with a cumulative ACK
    carrying up to three SACK blocks, sent on the ports of the segment
    it answers. Duplicate data arrivals set the [dup_seen] flag on the
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
    an arrival that is partly new and partly a duplicate. *)

val handle : t -> Sim_net.Packet.t -> unit
val rcv_nxt : t -> int
val dup_segments : t -> int
val reorder_spans : t -> int
(** Current number of disjoint out-of-order blocks (diagnostic). *)

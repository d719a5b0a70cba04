(** TCP receiver endpoint (one subflow).

    Answers SYNs with SYN-ACKs, buffers out-of-order data, and emits
    cumulative ACKs carrying up to three SACK blocks. Duplicate data
    arrivals set the [dup_seen] flag on the ACK (a DSACK stand-in that
    adaptive dup-ACK-threshold senders can exploit, cf. RR-TCP).

    ACKs are immediate by default; setting [params.delayed_ack > 1]
    coalesces in-order arrivals (flushed by count or by the delayed-ACK
    timer), while out-of-order, duplicate and hole-filling arrivals are
    always acknowledged immediately per RFC 5681.

    The receive window is unbounded — data-centre receivers are not the
    bottleneck in any of the paper's experiments. *)

type t

val create :
  ?params:Tcp_params.t ->
  host:Sim_net.Host.t ->
  peer:Sim_net.Addr.t ->
  conn:int ->
  subflow:int ->
  on_data:(dsn:int -> len:int -> unit) ->
  unit ->
  t
(** [on_data] fires for every data arrival (duplicates included) with
    the segment's data-level sequence; connection-level logic dedupes
    via its own interval set. *)

val handle : t -> Sim_net.Packet.t -> unit
val rcv_nxt : t -> int
val delack_pending : t -> bool
(** Whether the delayed-ACK timer is armed. *)

val acks_sent : t -> int
val dup_segments : t -> int
val reorder_spans : t -> int
(** Current number of disjoint out-of-order blocks (diagnostic). *)

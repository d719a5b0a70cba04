(** TCP sender endpoint (one subflow).

    A NewReno sender over an abstract data source: a pull function
    that hands the sender its next data-level chunk. Every subflow of a
    {!Flow} pulls from the connection's {!Dataplane} and carries the
    DSN mapping in its segments (a single-subflow TCP flow's DSNs equal
    its sequence numbers). MMPTCP's packet-scatter subflow wraps that
    pull with its phase logic, randomises the source port per
    transmitted packet (via [src_port]) and uses a topology-derived
    dup-ACK threshold (via [dupack_threshold]).

    Loss recovery: fast retransmit / NewReno fast recovery with partial
    ACKs, and RTO with exponential backoff followed by ACK-clocked
    retransmission of the remaining holes. With [params.sack] set, fast
    recovery instead repairs the holes the receiver's SACK blocks
    identify (off by default, matching the paper-era ns-3 models). Karn's algorithm guards RTT samples.

    The window lives in one {!Cong.window}, which the sender's
    {!Cong.t} controller updates. In the dev profile
    ({!Sim_engine.Sanitizer_mode.on}) every controller call is checked
    to leave a finite cwnd and an ssthresh of at least one MSS, and
    every ACK to leave [snd_una] where it was or further on; a
    violation fails with the connection and subflow named. *)

module Time = Sim_engine.Sim_time

(** {1 Data sources} *)

type source = max:int -> (int * int) option
(** [source ~max] allocates the next chunk to this subflow as
    [(dsn, len)] with [0 < len <= max], or [None] when nothing is
    available right now. *)

(** {1 Sender} *)

type stats = {
  mutable segments_sent : int;  (** data segments, including rtx *)
  mutable segments_rtx : int;
  mutable bytes_sent : int;
  mutable rto_events : int;
  mutable fast_rtx_events : int;
  mutable acks_received : int;
  mutable dsacks_received : int;
  mutable syn_sent : int;
}

type t

val create :
  host:Sim_net.Host.t ->
  peer:Sim_net.Addr.t ->
  conn:int ->
  subflow:int ->
  params:Tcp_params.t ->
  src_port:(unit -> int) ->
  dst_port:int ->
  source:source ->
  cc:Cong.algorithm ->
  ?dupack_threshold:(unit -> int) ->
  ?on_dsack:(unit -> unit) ->
  ?on_first_congestion:(unit -> unit) ->
  unit ->
  t
(** [cc] selects the congestion control; [create] builds this sender's
    controller from it (for {!Cong.Lia}, joining the group).
    [on_first_congestion] fires on the first fast retransmit or RTO —
    the trigger for MMPTCP's congestion-event switching strategy.
    [dupack_threshold] is sampled on every duplicate ACK, so it may be
    time-varying (adaptive thresholds). *)

val connect : t -> unit
(** Send the SYN and start the handshake. *)

val handle : t -> Sim_net.Packet.t -> unit
(** Process an incoming (SYN-)ACK for this subflow. *)

(** {1 Introspection} *)

val cwnd : t -> float
val ssthresh : t -> float
val flight : t -> int
val rto_pending : t -> bool
(** Whether the retransmission timer is armed. *)

val stats : t -> stats

(** MMPTCP: the paper's hybrid transport connection.

    Phase 1 — {b Packet Scatter}: one TCP congestion window whose
    packets each carry a fresh random source port, so hash-based ECMP
    sprays them across every available path (scatter is initiated at
    the end host, not in switches). Reordering-induced duplicate ACKs
    are absorbed by a configurable dup-ACK threshold, by default
    derived from the topology's equal-cost path count.

    Phase 2 — {b MPTCP}: when the switching strategy fires, [subflows]
    regular subflows are opened (full handshakes) and take over all
    unassigned data under LIA coupled congestion control. The scatter
    flow receives no new data and is deactivated once its window
    drains.

    Short flows complete inside phase 1 and enjoy scatter's burst
    tolerance; long flows spend their life in phase 2 and enjoy
    MPTCP's throughput — the "battle that both can win".

    The connection itself is a {!Sim_tcp.Flow}; this module adds only
    the phase logic: when to switch, and which subflows to open. *)

module Time = Sim_engine.Sim_time

type phase = Packet_scatter | Multipath

type t

val start :
  src:Sim_net.Host.t ->
  dst:Sim_net.Host.t ->
  size:int ->
  rng:Sim_engine.Rng.t ->
  ?strategy:Strategy.t ->
  ?params:Sim_tcp.Tcp_params.t ->
  ?paths:int ->
  ?on_complete:(t -> unit) ->
  ?on_switch:(t -> unit) ->
  ?on_close:(t -> unit) ->
  unit ->
  t
(** [paths] is the number of routed paths between the endpoints
    (callers get it from [Topology.paths]); it feeds the
    [Topology_aware] dup-ACK strategy. [rng] drives per-packet source
    ports. [on_close] fires once, when no packet of the connection is
    alive and no RTO of it is pending (as {!Sim_tcp.Flow.start}'s). *)

val flow : t -> Sim_tcp.Flow.t
(** The underlying connection: id, size, completion, bytes received
    and loss-recovery counts summed over every subflow. Subflow 0 is the
    scatter subflow; 1 to [subflows] are the multipath ones. *)

val phase : t -> phase
val switched_at : t -> Time.t option
val spurious_rtx_signals : t -> int
(** DSACK-style duplicate-arrival signals received by the scatter
    sender — a measure of how often reordering was mistaken for loss. *)

val scatter_tx : t -> Sim_tcp.Tcp_tx.t
val multipath_txs : t -> Sim_tcp.Tcp_tx.t array
(** Empty before the switch. *)

val current_dupack_threshold : t -> int
val total_cwnd : t -> float

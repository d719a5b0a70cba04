(** Unidirectional point-to-point link.

    A link models a transmitter (store-and-forward serialisation at
    [rate_bps] out of a drop-tail queue) followed by fixed propagation
    delay. Transmission is pipelined: the next packet starts
    serialising as soon as the previous one has left the transmitter,
    while earlier packets are still propagating.

    The receive side is a closure installed with [attach]; topologies
    wire it to the downstream switch or host.

    {b One pending event per link.} The link holds every packet it
    accepted and has not delivered, in one FIFO: first the timed
    packets, whose serialisation has started and whose arrival instant
    (end of serialisation + delay + jitter, clamped to keep the link
    FIFO) is fixed, then the waiting ones, which are the queue's
    backlog. Exactly one scheduler event is pending while a timed
    packet is undelivered: the arrival of the oldest. A waiting packet
    starts when the one before it leaves the transmitter, and no
    event marks that instant. The link times it then or later, at its
    next catch-up ({!catch_up}), which every operation here runs
    first: a send, an arrival, a reservation change, a stats or
    utilisation read, and the queue's depth gauges. The catch-up times
    in FIFO order every waiting packet whose start is at or before
    now, at the rate in effect (a reservation change catches up
    first), with its jitter draw, stats and taps. An arrival delivers
    the oldest packet and arms the next one's, which is timed by then,
    since its start has passed. N packets cost N events, spaced or in
    a burst.

    {b Ties.} Every start, drop, stats update, jitter draw and
    arrival instant is the one a link with a tx-done per packet
    would give. Only the order among events due at the same instant
    differs: a packet's arrival takes its place in that order when
    the packet before it arrives (or, on an idle link, when it is
    sent), and work at exactly the end of a serialisation finds the
    next packet started. *)

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable busy_ns : int;  (** cumulative serialisation time, ns *)
}

type t

val create :
  ?jitter:Sim_engine.Sim_time.t ->
  sched:Sim_engine.Scheduler.t ->
  rate_bps:float ->
  delay:Sim_engine.Sim_time.t ->
  queue:Pktqueue.t ->
  id:int ->
  unit ->
  t
(** [jitter] (default 5 us) is the bound of a uniform random extra
    propagation delay applied per packet, from a per-link deterministic
    stream. It decorrelates otherwise perfectly ACK-clocked arrivals —
    without it drop-tail FIFOs exhibit total lockout of sparse flows, a
    simulation artifact. Delivery order on a link remains FIFO. Pass
    [Sim_time.zero] for exact timing (used by timing unit tests). *)

val attach : ?peer:int -> t -> (Packet.t -> unit) -> unit
(** Install the receiver-side handler. Must be called before traffic
    flows; [send] raises [Failure] otherwise. [peer] names the
    receiving node for route walks ({!Topology.paths}): a switch id,
    or [-1 - a] for the host with address [a]; by default none
    ([min_int]). *)

val peer : t -> int

val add_tap : t -> (Sim_engine.Sim_time.t -> Packet.t -> unit) -> unit
(** Register a passive observer called for every packet with the
    instant its serialisation starts (flow monitors, packet sniffers).
    It is called when the link times the packet, at its next
    catch-up, which can be later than the start. Taps never affect
    forwarding. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission (drop-tail on overflow). *)

val catch_up : t -> unit
(** Time every waiting packet whose serialisation has started by the
    scheduler's clock. Every other operation of this module does it
    first; call it before reading the queue's backlog
    ({!Pktqueue.backlog_pkts}) directly. Idempotent at one instant. *)

val id : t -> int
val queue : t -> Pktqueue.t
val rate_bps : t -> float
val delay : t -> Sim_engine.Sim_time.t
val stats : t -> stats

val set_reserved_bps : t -> float -> unit
(** Reserve part of the link's capacity for a coexisting fluid
    allocation (hybrid model): subsequent packet serialisations run at
    the residual rate, floored at 5% of nominal so packet traffic
    always drains. Clamped to [\[0, rate_bps\]]; 0 (the initial value)
    restores exact nominal-rate timing. *)

val utilisation : t -> float
(** Fraction of the time up to the scheduler's clock that the
    transmitter has been busy. *)

(** Unidirectional point-to-point link.

    A link models a transmitter (store-and-forward serialisation at
    [rate_bps] out of a drop-tail queue) followed by fixed propagation
    delay. Transmission is pipelined: the next packet starts
    serialising as soon as the previous one has left the transmitter,
    while earlier packets are still propagating.

    The receive side is a closure installed with [attach]; topologies
    wire it to the downstream switch or host.

    {b Events.} A hop costs one scheduler event, the packet's arrival.
    When a packet starts serialising, its arrival instant is already
    fixed (end of serialisation + delay + jitter, clamped to keep the
    link FIFO), so its rx event is armed right then. A second event,
    the tx-done that starts the next packet, is armed for the end of
    serialisation only while a packet waits in the queue: by the
    [send] that finds the transmitter mid-packet, or by the start of
    a packet that leaves others queued behind it. A [send] that finds
    the transmitter free starts its packet at once. N packets spaced
    wider than their serialisation cost N events; a burst of N sent
    at one instant costs 2N - 1.

    Both are one-shot {!Sim_engine.Scheduler.Event}s: nothing cancels
    or moves either. The tx-done comes from a pool of its own, which
    holds one cell, since at most one is pending; whether it is can
    be read off the queue, so the link keeps no flag for it.

    {b Ties.} Every start, drop, stats update, jitter draw and
    arrival instant is the one a link with a tx-done per packet
    would give. Only the order among events due at the same instant
    differs: a packet's rx takes its place in that order when its
    serialisation starts, not when it ends, and a send at exactly the
    end of a serialisation finds the transmitter free at once when
    no packet waits. *)

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

val add_tap : t -> (Packet.t -> unit) -> unit
(** Register a passive observer called for every packet as it starts
    transmitting (flow monitors, packet sniffers). Taps never affect
    forwarding. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission (drop-tail on overflow). *)

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

val utilisation : t -> now:Sim_engine.Sim_time.t -> float
(** Fraction of wall-clock time the transmitter has been busy. *)

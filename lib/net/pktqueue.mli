(** Drop-tail admission for a link's transmit queue.

    One queue sits in front of every link transmitter. Capacity is
    counted in packets (matching ns-3's default [DropTailQueue]
    configuration used in the paper's era): a packet that arrives to a
    full queue is dropped, any other is accepted. The queue stores no
    packet: the link keeps every packet it accepted, in FIFO order,
    until it delivers it ({!Link}). The queue counts the backlog, the
    accepted packets whose serialisation the link has not yet timed,
    and keeps the drop hooks, the stats and the metrics. *)

type stats = {
  mutable enqueued : int;  (** packets accepted *)
  mutable dropped : int;  (** packets dropped (queue full) *)
  mutable bytes_enqueued : int;
  mutable max_backlog : int;  (** high-water mark, packets *)
}

type t

val create :
  ctx:Sim_engine.Sim_ctx.t ->
  capacity:int ->
  layer:Layer.t ->
  unit ->
  t
(** [capacity] in packets. [ctx] is the owning simulation's identifier
    state: it numbers the queue, which names its metrics. *)

val admit : t -> Packet.t -> bool
(** Accept the packet into the backlog, or drop it when the backlog
    is at capacity: [false] if it was dropped, freed after the drop
    hooks. *)

val release : t -> bytes:int -> unit
(** A packet of [bytes] wire bytes left the backlog: its
    serialisation has started. Raises [Invalid_argument] on an empty
    backlog. *)

val add_drop_hook : t -> (Packet.t -> unit) -> unit
(** Register an observer called for every dropped packet. Multiple
    observers may coexist (e.g. the metrics layer and a test's own
    drop counter); they run in installation order, after the drop is
    counted in {!stats} and after any [queue_drop] metrics event is
    emitted.
    Hooks cannot be removed — an observer lives as long as its
    queue.

    {b Aliasing rule}: every hook runs strictly before the queue
    returns the packet to the pool ({!Packet.free} happens only after
    the last hook), so a hook may read any field of its argument — but
    the argument is a lease, not a gift. The moment the hook returns,
    the record may be recycled into an unrelated segment; a hook that
    wants to keep the packet (or any alias to it) past its own return
    must retain a {!Packet.copy}. The debug-profile pool sanitizer
    turns a violation into [Invalid_argument]; simlint rule D007
    rejects it statically. *)

val backlog_pkts : t -> int
val backlog_bytes : t -> int
(** The backlog as of the owning link's last catch-up
    ({!Link.catch_up}); the depth gauges catch up first. *)

val metered : t -> bool
(** Whether the metrics registry was on when the queue was made: its
    depth gauges exist. *)

val set_sync : t -> (unit -> unit) -> unit
(** Install what the depth gauges run before they read the backlog:
    the owning link's catch-up. *)

val layer : t -> Layer.t
val stats : t -> stats

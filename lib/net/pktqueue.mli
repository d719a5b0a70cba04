(** Drop-tail FIFO packet queue.

    One queue sits in front of every link transmitter. Capacity is
    counted in packets (matching ns-3's default [DropTailQueue]
    configuration used in the paper's era): a packet that arrives to a
    full queue is dropped, any other is appended. *)

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

val enqueue : t -> Packet.t -> bool
(** [false] if the packet was dropped. *)

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

val take : t -> Packet.t
(** Remove and return the oldest packet. Raises [Invalid_argument] on
    an empty queue: test {!is_empty} first. *)

val backlog_pkts : t -> int
val backlog_bytes : t -> int
val is_empty : t -> bool
val layer : t -> Layer.t
val stats : t -> stats

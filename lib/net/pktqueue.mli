(** Drop-tail FIFO packet queue with optional ECN marking.

    One queue sits in front of every link transmitter. Capacity is
    counted in packets (matching ns-3's default [DropTailQueue]
    configuration used in the paper's era). When an ECN threshold is
    configured, packets that arrive to a backlog at or above the
    threshold are CE-marked instead of (not) being dropped — the
    standard DCTCP switch behaviour. *)

type stats = {
  mutable enqueued : int;  (** packets accepted *)
  mutable dropped : int;  (** packets dropped (queue full) *)
  mutable marked : int;  (** packets CE-marked *)
  mutable bytes_enqueued : int;
  mutable max_backlog : int;  (** high-water mark, packets *)
}

type t

(** Random Early Detection parameters (Floyd & Jacobson 1993). The
    average queue is an EWMA with gain [weight]; packets are dropped
    (or CE-marked when [mark] is set and the packet's transport
    supports it) with probability rising linearly from 0 at [min_th]
    to [max_p] at [max_th], and always beyond [max_th]. *)
type red = {
  min_th : int;  (** packets *)
  max_th : int;  (** packets *)
  max_p : float;
  weight : float;  (** EWMA gain, e.g. 0.002 *)
  mark : bool;  (** mark instead of dropping (ECN mode) *)
}

val default_red : red
(** min 5, max 15, max_p 0.1, weight 0.002, drop mode. *)

val create :
  ?ecn_threshold:int ->
  ?red:red ->
  ctx:Sim_engine.Sim_ctx.t ->
  capacity:int ->
  layer:Layer.t ->
  unit ->
  t
(** [capacity] in packets; [ecn_threshold] in packets (step marking at
    a fixed backlog, the DCTCP style); [red] enables RED early
    drop/marking instead. The two are exclusive; [red] wins if both are
    given. [ctx] is the owning simulation's identifier state: queues
    constructed in the same order within a simulation draw the same
    RED seeds, independent of any other simulation in the process. *)

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

val dequeue : t -> Packet.t option
val backlog_pkts : t -> int
val backlog_bytes : t -> int
val is_empty : t -> bool
val capacity : t -> int
val layer : t -> Layer.t
val stats : t -> stats

val red_average : t -> float
(** Current RED average backlog estimate; 0 when RED is off. *)

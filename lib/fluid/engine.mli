(** Event-driven fluid transport engine.

    Connections are rate processes over {!Alloc} instead of packet
    exchanges: Handshake (1 RTT) → Running (closed-form byte
    integration between allocator rate changes, under a doubling
    slow-start cap) → Draining (RTT/2 last-byte tail) → Finished.
    Each connection costs O(log size) scheduler events end to end,
    which is what lets k=16 FatTrees carry 10^5 flows under the
    wall-clock of a packet-level k=4 run (see DESIGN.md §4k).

    The engine is topology-free: callers resolve paths (link-id
    arrays, {!Sim_net.Topology.path}) and RTTs and pass
    them as {!leg_spec}s. Multipath couples legs through weights from
    {!Sim_tcp.Cong.Lia.fluid_weights}; MMPTCP's scatter→multipath shape
    is a {!switch_spec} ([Congestion_event] has no fluid analogue and
    behaves as [Never]). *)

type t
type conn

type leg_spec = {
  path : int array;  (** forward-path link ids ({!Sim_net.Topology.path}) *)
  weight : float;  (** allocator weight (LIA-coupled or unit) *)
  rtt_s : float;  (** round-trip time of this leg, seconds *)
}

type switch_spec = {
  sw_after_bytes : int;
      (** switch once this many bytes are done ([Data_volume]) *)
  sw_legs : leg_spec array;  (** legs to swap in at the switch *)
}

val make :
  sched:Sim_engine.Scheduler.t ->
  cap_bps:float array ->
  ?params:Sim_tcp.Tcp_params.t ->
  unit ->
  t
(** [cap_bps.(id)] is link [id]'s capacity. [params] supplies the
    slow-start model's [mss] and [initial_window]. The rate-rebalance
    quantum is 2 ms of virtual time: arrivals and departures mark the
    allocator dirty and a single engine timer drains it once per
    quantum, so event bursts share one global ripple pass. A starting
    connection still gets its initial rate immediately from a local
    water-fill. Registers engine-level gauges (component ["fluid"])
    when the metrics registry is enabled. *)

val start :
  t ->
  ?resume_from:int ->
  ?switch:switch_spec ->
  legs:leg_spec array ->
  size:int ->
  on_complete:(conn -> unit) ->
  unit ->
  conn
(** Launch a transfer of [size] bytes: a handshake of one RTT, then
    slow start. [resume_from] continues a connection that has already
    delivered that many bytes (hybrid stage 2, after the packet
    stage): no handshake and no slow start, the transfer runs at its
    full allocated rate at once, and the byte counter consulted by
    [sw_after_bytes] starts from it. [on_complete] fires when the
    last byte lands. *)

val flush : t -> unit
(** Drain pending allocator recomputation at the current virtual
    time (call after a batch of [set_link_avail]). *)

val set_link_avail : t -> link:int -> float -> unit
(** Residual capacity coupling (hybrid): capacity the allocator may
    hand out on one link. *)

val link_alloc_bps : t -> link:int -> float
(** Current fluid allocation on a link — what the hybrid model
    mirrors into {!Sim_net.Link.set_reserved_bps}. *)

val finalize : t -> unit
(** Advance utilisation integrals to the current virtual time. *)

val link_utilisation : t -> link:int -> float

(** {1 Connection accessors} *)

val conn_id : conn -> int
val conn_fct : conn -> Sim_engine.Sim_time.t option
val conn_is_complete : conn -> bool

val conn_bytes : conn -> int
(** Bytes delivered up to now in this stage (excludes [resume_from]);
    exactly the connection's size once it has completed. *)

(** {1 Engine counters} *)

val active : t -> int

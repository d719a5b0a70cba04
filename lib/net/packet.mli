(** Simulated packets.

    Every packet carries a TCP segment, flattened into one mutable
    record: the standard 5-tuple fields plus the simulation-level
    connection id (which stands in for full connection demultiplexing
    state at the hosts) and an optional MPTCP data-sequence mapping.

    Packets are pooled per simulation. {!make} reuses a record freed
    earlier in the same {!Sim_engine.Sim_ctx.t} when one is available,
    so the per-segment cost on the hot path is field writes, not
    allocation. The two sinks of a packet's life — final delivery at a
    host and a queue drop — call {!free}; in between, components may
    read the packet but must not retain it past their handler (copy
    the fields, or {!sack_blocks} for the SACK payload; duplicate the
    whole packet with {!copy}). Boolean header flags live in {!bits},
    an int bitset, so no flags record exists to allocate.

    The ownership contract is machine-checked twice over (DESIGN.md
    §4i): statically by simlint rule D007, which rejects any
    expression of this type that escapes its handler scope without
    flowing through {!copy}; and dynamically, in every build profile
    except [release], by the pool sanitizer — {!free} flips the
    record's {!gen} parity and poisons the header fields, and every
    accessor asserts the packet is live, so a retained alias fails
    loudly under [dune runtest] instead of corrupting a later
    simulation's segment. *)

type t = {
  mutable uid : int;  (** unique per packet, for tracing *)
  mutable src : Addr.t;
  mutable dst : Addr.t;
  mutable size : int;  (** bytes on the wire, header included *)
  mutable conn : int;  (** simulation-global connection identifier *)
  mutable subflow : int;
      (** subflow index within the connection; 0 for plain TCP *)
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
      (** subflow-level byte sequence of the first payload byte *)
  mutable ack_seq : int;
      (** cumulative acknowledgement (valid when the ack bit is set) *)
  mutable len : int;  (** payload bytes *)
  mutable bits : int;  (** header booleans, see the [*_bit] masks *)
  mutable dsn : int;
      (** MPTCP data-level sequence of the payload; -1 when absent *)
  mutable sack_count : int;  (** live SACK blocks in [sack] *)
  sack : int array;
      (** selective-acknowledgement blocks above the cumulative ACK,
          block [i] spanning [sack.(2*i), sack.(2*i+1))]; at most
          {!max_sack_blocks}, none when the receiver holds no
          out-of-order data (or SACK is unused by the sender) *)
  mutable gen : int;
      (** pool generation: odd while issued by {!make}, even while in
          the freelist. Maintained (and asserted) only when
          {!sanitizer} is set; constant 1 in release builds. Not
          simulation state — never read it to make a protocol
          decision. *)
}

val header_bytes : int
(** Combined IP + TCP header size charged to every segment (40). *)

val max_sack_blocks : int
(** Capacity of the [sack] scratch array, in blocks (3). *)

(** {2 Header bits}

    [bits] is an OR of SYN, ACK, FIN and DUP masks (DUP is a
    duplicate-arrival signal, a DSACK stand-in). The [*_bits]
    constants are the common whole-header values, mirroring the
    flag-record constants the pooled representation replaced. *)

val data_bits : int
(** No flags: a plain data segment. *)

val pure_ack_bits : int

val syn_bits : int
val syn_ack_bits : int

val ack_bits : dup_seen:bool -> int
(** The ACK mask plus the requested signal bits — the receiver's ACK
    emission path, computed without allocating. *)

val syn : t -> bool
val ack : t -> bool
val dup_seen : t -> bool

val make :
  ctx:Sim_engine.Sim_ctx.t ->
  src:Addr.t ->
  dst:Addr.t ->
  conn:int ->
  subflow:int ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack_seq:int ->
  len:int ->
  bits:int ->
  dsn:int ->
  t
(** Builds a packet; [size] is [header_bytes + len] and [sack_count] is
    0. The record comes from [ctx]'s pool when one is free, otherwise
    it is allocated (and joins the pool when freed).
    Either way the [uid] is fresh from {!Sim_engine.Sim_ctx.t}, so uid
    sequences are identical with or without reuse and concurrent
    simulations never share numbering. *)

val copy : ctx:Sim_engine.Sim_ctx.t -> t -> t
(** A second physical packet with the same header (fresh [uid]) — for
    taps that duplicate traffic: each copy then has its own pooled
    lifetime, where re-injecting the original would double-{!free}. *)

val free : ctx:Sim_engine.Sim_ctx.t -> t -> unit
(** Return [t] to [ctx]'s pool for reuse by a later {!make}. Only the
    packet's final owner (host delivery, queue drop) may call this,
    exactly once; the caller must hold no reference afterwards. Under
    {!sanitizer}, a second [free] of the same record raises
    [Invalid_argument] and the header fields are poisoned. *)

(** {2 Connection lifetimes}

    The pool counts the live packets of each connection id: {!make}
    (and so {!copy}) adds one, {!free} takes one away. A connection
    acts only when one of its packets arrives or one of its timers
    fires, so once its count is 0 and no timer of its is pending it
    can never act again (DESIGN.md §4i). Connection ids must be
    non-negative; they are dense per simulation. *)

val live_packets : ctx:Sim_engine.Sim_ctx.t -> conn:int -> int
(** Packets of [conn] issued by {!make} and not yet freed. *)

val live_total : ctx:Sim_engine.Sim_ctx.t -> int
(** {!live_packets} summed over every connection: packets issued by
    {!make} and not yet freed. A finished simulation whose transports
    tore down cleanly reports 0; anything positive is a leaked
    packet. *)

val on_idle : ctx:Sim_engine.Sim_ctx.t -> conn:int -> (unit -> bool) -> unit
(** [on_idle ~ctx ~conn check] watches [conn]: each time its last live
    packet is freed, [check] runs at the next {!run_idle}. [check]
    returns [true] once the connection has closed, which ends the
    watch and drops [check]; [false] keeps watching (a timer is still
    pending, and whatever it sends will bring the count back to 0
    later). Registering again replaces the check. *)

val run_idle : ctx:Sim_engine.Sim_ctx.t -> unit
(** Run the checks of the connections whose count reached 0 since the
    last call and is 0 still. {!Host.receive} calls it after its
    handler has run and the packet has been freed. It is never run
    from {!free} itself: a drop at the sender's own first hop frees
    the packet inside {!Host.send}, before the sender has armed the
    timer that will retransmit it. *)

val sanitizer : bool
(** Whether the runtime pool sanitizer is compiled in — equal to
    {!Sim_engine.Sanitizer_mode.on}, i.e. [true] in every profile but
    [release]. Tests that plant deliberate ownership violations gate
    their expectations on this. *)

val sack_blocks : t -> (int * int) list
(** The SACK blocks as a fresh [(start, stop)] list — an allocating
    convenience for tests and diagnostics; the hot path reads the
    [sack] array directly. *)

val is_data : t -> bool
val is_pure_ack : t -> bool

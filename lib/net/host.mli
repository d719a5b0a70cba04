(** End host.

    A host owns one or more NICs (uplinks to edge switches — more than
    one only in multi-homed topologies) and a demultiplexing table from
    connection id to handler. Transport endpoints bind their connection
    id on both hosts; packets whose connection id is not bound are
    counted and discarded. *)

type t

val create : sched:Sim_engine.Scheduler.t -> addr:Addr.t -> t

val addr : t -> Addr.t
val sched : t -> Sim_engine.Scheduler.t

val add_nic : t -> Link.t -> unit
(** Register an uplink. Called by topology builders. *)

val nic_count : t -> int

val nics : t -> Link.t array
(** The uplinks in registration order: the first hop group of every
    path out of this host (see {!Topology.paths}). *)

val send : t -> Packet.t -> unit
(** Transmit via the single NIC, or {!Ecmp.pick} among NICs (salted
    with the address plus [0x5115]) when multi-homed. Raises [Failure]
    if the host has no NIC. *)

val receive : t -> Packet.t -> unit
(** Deliver an incoming packet to the bound connection handler. *)

val bind : t -> conn:int -> (Packet.t -> unit) -> unit
(** Raises [Invalid_argument] if the connection id is already bound. *)

val unbind : t -> conn:int -> unit

val bind_conn :
  src:t ->
  dst:t ->
  conn:int ->
  tx:(Packet.t -> unit) ->
  rx:(Packet.t -> unit) ->
  timers_pending:(unit -> bool) ->
  on_close:(unit -> unit) ->
  unit
(** Bind a transport connection: [tx] on [src], [rx] on [dst]. Then
    close it as soon as it can never act again — none of its packets
    is alive ({!Packet.live_packets} is 0) and [timers_pending ()] is
    false: unbind [conn] on both hosts and call [on_close], once. The
    check runs from {!receive} (see {!Packet.run_idle}); a connection
    whose last act is a timer that sends nothing stays bound. *)

val unmatched : t -> int
(** Packets that arrived for an unbound connection id. With every
    connection bound through {!bind_conn}, any such packet reached a
    connection that was closed while it could still act. *)

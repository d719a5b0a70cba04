(** A unidirectional single-path TCP flow between two hosts.

    Wires a {!Tcp_tx} on the source host to a {!Tcp_rx} on the
    destination host, binds the connection id in both hosts'
    demultiplexers, and reports completion when the receiver holds all
    [size] bytes (the paper's flow-completion-time definition). *)

module Time = Sim_engine.Sim_time

type t

val start :
  src:Sim_net.Host.t ->
  dst:Sim_net.Host.t ->
  size:int ->
  ?params:Tcp_params.t ->
  ?dupack_threshold:(unit -> int) ->
  ?src_port:int ->
  ?dst_port:int ->
  ?on_complete:(t -> unit) ->
  ?on_close:(t -> unit) ->
  unit ->
  t
(** Starts the handshake immediately (schedule the call itself for
    deferred starts). Congestion control is {!Cong.Reno}; the
    default source port is derived from the connection id so distinct
    flows hash to distinct ECMP paths.

    [on_close] fires once, when the flow can never act again: no
    packet of it is alive and neither its RTO nor its delayed-ACK
    timer is pending ({!Sim_net.Host.bind_conn}, which also unbinds it
    from both hosts). Every reading below is final from then on; the
    record itself stays readable. *)

val conn : t -> int
val size : t -> int
val started_at : t -> Time.t
val completed_at : t -> Time.t option
val fct : t -> Time.t option
(** Completion time minus start time, once complete. *)

val is_complete : t -> bool
val bytes_received : t -> int
val tx : t -> Tcp_tx.t
val rx : t -> Tcp_rx.t
val rto_events : t -> int

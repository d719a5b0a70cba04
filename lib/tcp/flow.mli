(** A unidirectional packet-level transport connection between two
    hosts: plain TCP, MPTCP, and the base MMPTCP builds on.

    A flow owns its connection id, a {!Dataplane} (the byte counts:
    chunk lengths handed to subflows on demand, and bytes delivered at
    the receiver), and its subflows: a {!Tcp_tx} on the source host and
    a {!Tcp_rx} on the destination host each. It binds the connection
    id in both hosts' demultiplexers, routes each packet to its
    subflow, and completes when the receiver holds all [size] bytes
    over any subflows (the paper's flow-completion-time definition):
    it stamps {!completed_at}, records the completion in the flow
    ledger and calls [on_complete]. TCP is a flow with one subflow;
    MPTCP one with [subflows]; MMPTCP ([Mmptcp.Mmptcp_conn]) opens its packet-scatter
    subflow first and its multipath subflows at the phase switch. *)

module Time = Sim_engine.Sim_time

type t

val start :
  src:Sim_net.Host.t ->
  dst:Sim_net.Host.t ->
  size:int ->
  ?params:Tcp_params.t ->
  ?on_complete:(t -> unit) ->
  ?on_close:(t -> unit) ->
  unit ->
  t
(** Plain TCP: one {!Cong.Reno} subflow, on a source port derived from
    the connection id so distinct flows hash to distinct ECMP paths.
    Starts the handshake immediately (schedule the call itself for
    deferred starts).

    [on_close] fires once, when the flow can never act again: no
    packet of it is alive and none of its senders has an RTO pending
    (receivers hold no timer; {!Sim_net.Host.bind_conn}, which also
    unbinds it from both hosts). Every reading below is final from
    then on; the record itself stays readable. *)

val start_mptcp :
  src:Sim_net.Host.t ->
  dst:Sim_net.Host.t ->
  size:int ->
  subflows:int ->
  ?params:Tcp_params.t ->
  ?coupled:bool ->
  ?on_complete:(t -> unit) ->
  ?on_close:(t -> unit) ->
  unit ->
  t
(** MPTCP: [subflows] subflows carry one byte stream, all opened (SYN)
    immediately. Each gets a distinct source port, so hash-based ECMP
    (usually) routes it over a distinct path; LIA couples their
    congestion windows, or [coupled = false] runs uncoupled per-subflow
    Reno (ablation baseline). This is the protocol whose short-flow
    behaviour Figure 1(a)/(b) of the paper characterises: with many
    subflows each window is tiny, single losses cannot be recovered by
    fast retransmit, and the flow stalls for a full RTO. [on_close] as
    for {!start}. *)

(** {1 Building a transport on a flow}

    The steps {!start} and {!start_mptcp} take, for a transport that
    opens its subflows itself: {!create}, then {!add_subflow} or
    {!add_sender} for each opening subflow, then {!complete_if_empty},
    then {!Tcp_tx.connect} on each sender. *)

val create :
  src:Sim_net.Host.t ->
  dst:Sim_net.Host.t ->
  size:int ->
  params:Tcp_params.t ->
  coupled:bool ->
  on_complete:(t -> unit) ->
  on_close:(t -> unit) ->
  t
(** A flow with no subflow yet, bound in both hosts. [coupled] gives it
    a LIA group, which every {!add_subflow} subflow joins. *)

val add_subflow : t -> port:int -> Tcp_tx.t
(** Adds the next subflow on fixed source port [port]: it pulls from
    the flow's data plane and runs LIA over the flow's group when
    coupled, Reno otherwise. The sender is returned unconnected. *)

val add_sender : t -> (int -> Tcp_tx.t) -> Tcp_tx.t
(** [add_sender t make] adds the next subflow with the sender
    [make i] builds for subflow id [i] (pulling from {!plane}), and its
    receiver. The sender is returned unconnected. *)

val complete_if_empty : t -> unit
(** Completes a zero-byte flow. Call once, after the opening subflows
    are added and before they connect. *)

(** {1 Readings} *)

val conn : t -> int
val plane : t -> Dataplane.t
val completed_at : t -> Time.t option
val fct : t -> Time.t option
(** Completion time minus start time, once complete. *)

val is_complete : t -> bool
val bytes_received : t -> int
val subflow_count : t -> int
val txs : t -> Tcp_tx.t array
(** The senders, by subflow id. *)

val tx : t -> Tcp_tx.t
(** Subflow 0's sender. *)

val rto_events : t -> int
(** Summed over subflows. *)

val lia_alpha : t -> float option
(** [None] when running uncoupled. *)

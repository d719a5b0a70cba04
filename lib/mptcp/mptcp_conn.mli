(** An MPTCP connection.

    [subflows] independent TCP subflows carry one byte stream. Each
    subflow gets a distinct source port, so hash-based ECMP (usually)
    routes it over a distinct path; LIA couples their congestion
    windows. This is the protocol whose short-flow behaviour Figure
    1(a)/(b) of the paper characterises: with many subflows each window
    is tiny, single losses cannot be recovered by fast retransmit, and
    the flow stalls for a full RTO. *)

module Time = Sim_engine.Sim_time

type t

val start :
  src:Sim_net.Host.t ->
  dst:Sim_net.Host.t ->
  size:int ->
  subflows:int ->
  ?params:Sim_tcp.Tcp_params.t ->
  ?coupled:bool ->
  ?on_complete:(t -> unit) ->
  ?on_close:(t -> unit) ->
  unit ->
  t
(** All subflows open (SYN) immediately. [coupled = false] replaces LIA
    with uncoupled per-subflow Reno (ablation baseline). [on_close]
    fires once, when no packet of the connection is alive and no
    subflow has its RTO or delayed-ACK timer pending (as
    {!Sim_tcp.Flow.start}'s). *)

val conn : t -> int
val size : t -> int
val subflow_count : t -> int
val started_at : t -> Time.t
val completed_at : t -> Time.t option
val fct : t -> Time.t option
val is_complete : t -> bool
val bytes_received : t -> int
val rto_events : t -> int
(** Summed over subflows. *)

val fast_rtx_events : t -> int
val lia_alpha : t -> float option
(** [None] when running uncoupled. *)

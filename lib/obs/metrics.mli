(** Per-simulation metrics registry.

    One [t] belongs to one simulation (it hangs off
    [Sim_engine.Sim_ctx]); nothing here is shared between simulations,
    so probed runs stay independent of each other. The registry is
    {e off} by default and components only register instruments when
    it is active, so an unprobed run pays at most one branch per
    instrumentation site.

    Three instrument kinds:

    - {e gauges}: named read closures over live component state
      (cwnd, queue depth, …), walked by the probe sampler at a fixed
      virtual-time interval. Registration order is the simulation's
      deterministic construction order and defines the column order of
      every rendered time series.
    - {e histograms}: fixed-bucket [Sim_stats.Histogram]s filled on
      the component's own event path (e.g. RTT samples), dumped once
      at capture time.
    - {e events}: timestamped structured records ([phase_switch],
      [rto_fired], [fast_retransmit], [queue_drop]) rendered as a
      JSONL stream, filterable by connection. *)

type meta = {
  component : string;  (** e.g. ["tcp_tx"], ["pktqueue"] *)
  id : string;  (** instance within the component, e.g. ["c3.s0"] *)
  name : string;  (** metric name, e.g. ["cwnd"] *)
  units : string;  (** unit metadata, e.g. ["bytes"], ["ns"] *)
}

type event = {
  t_ns : int;  (** virtual time of the event *)
  kind : string;  (** e.g. ["rto_fired"] *)
  conn : int;  (** connection id, [-1] when not connection-scoped *)
  subflow : int;  (** subflow index, [-1] when not applicable *)
  info : (string * string) list;  (** extra key/value detail *)
}

type t

val create : unit -> t
(** A fresh, disabled registry: [active] is [false], registration and
    emission are no-ops. *)

val enable : t -> ?conns:int list -> clock_ns:(unit -> int) -> unit -> unit
(** Turn the registry on. [conns] restricts connection-scoped
    instruments and events to the given connection ids (default: all
    connections). [clock_ns] supplies virtual-time timestamps for
    events — pass the owning scheduler's clock. Must be called before
    the instrumented components are constructed; components consult
    [active]/[want_conn] only at creation time. *)

val active : t -> bool

val want_conn : t -> int -> bool
(** Whether connection-scoped instruments for [conn] should be
    registered: [active t] and [conn] passes the [conns] filter. *)

val now_ns : t -> int
(** The registry's clock ([0] before {!enable}). *)

val conn_filter : t -> int list option
(** The [conns] restriction passed to {!enable} ([None] when the
    registry is disabled or unrestricted). *)

val conn_filter_matched : t -> bool
(** Whether any {!want_conn} query (or conn-scoped {!emit}) matched
    while a [conns] filter was set. Lets callers detect a filter that
    named only nonexistent connections — which would otherwise render
    perfectly empty artifacts — and fail loudly instead. *)

val components : t -> string list
(** Component names that registered at least one instrument, in first
    registration order — i.e. what the simulation actually built
    under the current model. Used in the mismatch diagnostic above. *)

val register :
  t ->
  component:string ->
  id:string ->
  name:string ->
  units:string ->
  (unit -> float) ->
  unit
(** Register a gauge. No-op while the registry is disabled. The read
    closure is called only by the sampler, never on a hot path. *)

val histogram :
  t ->
  component:string ->
  id:string ->
  name:string ->
  units:string ->
  lo:float ->
  hi:float ->
  buckets:int ->
  Sim_stats.Histogram.t option
(** Register and return a fixed-bucket histogram, or [None] while the
    registry is disabled (callers keep the option and branch once per
    fill site). *)

val emit :
  t ->
  kind:string ->
  ?conn:int ->
  ?subflow:int ->
  ?info:(string * string) list ->
  unit ->
  unit
(** Record a structured event at the current virtual time. Dropped
    when the registry is disabled, and when [conn >= 0] fails the
    [conns] filter (events without a connection always pass). *)

(** {2 Read-out (sampler / capture)} *)

val gauge_count : t -> int

val gauges : t -> (meta * (unit -> float)) array
(** Snapshot in registration order. *)

val hist_dump : t -> (meta * Sim_stats.Histogram.t) array
(** Histograms in registration order. *)

val events : t -> event array
(** Events in emission order. *)

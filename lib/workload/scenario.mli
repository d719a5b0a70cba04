(** Experiment driver: topology + roles + traffic + one transport.

    Reproduces the paper's Figure 1 setup: a fraction of hosts run
    long (background) flows; the rest emit fixed-size short flows
    scheduled by a Poisson process; everyone follows a traffic matrix;
    a single transport protocol serves the whole data centre.

    The driver is flow-model-agnostic: [config.model] selects the
    engine that serves the flows (packet stacks, fluid rate processes,
    or the hybrid handoff — see {!Flow_model}), and results carry the
    same shape for all three. *)

module Time = Sim_engine.Sim_time

type model = Flow_model.kind =
  | Packet  (** full packet-level stacks (reference fidelity) *)
  | Fluid  (** flows as rate processes, analytic FCTs *)
  | Hybrid of { handoff_bytes : int }
      (** packet until the threshold, fluid after *)

type protocol = Flow_model.protocol =
  | Tcp_proto
  | Dctcp_proto  (** requires ECN-enabled link specs in the topology *)
  | Mptcp_proto of { subflows : int; coupled : bool }
  | Mmptcp_proto of Mmptcp.Strategy.t

type topology_kind = Flow_model.topology_kind =
  | Fattree_topo of Sim_net.Fattree.params
  | Multihomed_topo of Sim_net.Multihomed.params
  | Vl2_topo of Sim_net.Vl2.params
  | Dumbbell_topo of { pairs : int; bottleneck : Sim_net.Topology.link_spec }

(** Observability switches, all off by default. Probing and the ledger
    are read-only taps: they never change flow behaviour (probing only
    adds sampler timer events to the schedule). *)
type obs_cfg = Flow_model.obs_cfg = {
  probe_interval : Time.t option;
      (** sample registered gauges every this much virtual time *)
  probe_conns : int list option;
      (** restrict connection-scoped instruments to these conn ids *)
  ledger : bool;
      (** record every flow's lifecycle in the flow ledger
          ({!Sim_obs.Flow_ledger}); the dump lands in [result.ledger] *)
  pin : unit;  (** no switch; see {!Flow_model.obs_cfg} *)
}

val default_obs : obs_cfg

type config = Flow_model.config = {
  model : model;  (** which engine serves the flows *)
  topo : topology_kind;
  protocol : protocol;
  seed : int;
  tm : Traffic_matrix.kind;
  long_fraction : float;  (** fraction of hosts running background flows *)
  long_size : int;  (** bytes; large enough never to finish *)
  short_size : int;  (** bytes per short flow (paper: 70 KB) *)
  short_flows : int;  (** total short flows to schedule *)
  short_rate : float;  (** Poisson arrival rate per short host, flows/s *)
  horizon : Time.t;  (** hard stop *)
  params : Sim_tcp.Tcp_params.t;
  obs : obs_cfg;
}

val paper_link_spec : Sim_net.Topology.link_spec
(** 100 Mb/s, 20 us delay, 50-packet drop-tail queues — the calibrated
    configuration all paper experiments run on. *)

val paper_fattree : ?k:int -> ?oversub:int -> unit -> Sim_net.Fattree.params
(** FatTree parameters using {!paper_link_spec} everywhere. *)

val default_config : config
(** k=4 oversub=4 FatTree on {!paper_link_spec}, packet model, MPTCP 8
    subflows, permutation TM, 1/3 long hosts, 70 KB shorts. *)

val protocol_name : protocol -> string

val model_name : model -> string
(** ["packet"], ["fluid"], ["hybrid:BYTES"]. *)

type flow_result = {
  id : int;  (** ordinal by start time within its class *)
  src : int;
  dst : int;
  flow_size : int;
  is_long : bool;
  start : Time.t;
  fct : Time.t option;  (** completion time, [None] if unfinished *)
  rtos : int;
  fast_rtxs : int;
  bytes_received : int;
}

type net_stats = Flow_model.net_stats = {
  ns_core_loss : float;
  ns_agg_loss : float;
  ns_core_utilisation : float;
}
(** Network-side aggregates, read off the topology before it is
    discarded. Precomputed (rather than keeping the topology handle in
    the result) so a [result] is pure data end to end — process-mode
    workers marshal results back to the coordinating process. *)

type result = {
  config : config;
  shorts : flow_result array;  (** sorted by start time *)
  longs : flow_result array;
  net : net_stats;
  events : int;
  duration : Time.t;  (** simulated time actually elapsed *)
  obs : Sim_obs.Capture.t option;
      (** probe capture, when [config.obs.probe_interval] was set *)
  ledger : Sim_obs.Flow_ledger.dump option;
      (** per-flow lifecycle records in arrival order, when
          [config.obs.ledger] was set — identical across flow models,
          job counts and exec modes *)
}

val run : ?progress:(string -> unit) -> config -> result
(** Raises [Failure] when [config.obs.probe_conns] names only
    connections that never existed under the selected model — the
    message lists the components the model actually registered. *)

(** {1 Result accessors} *)

val short_fcts_ms : result -> float array
(** FCTs of completed short flows, milliseconds, in start order. *)

val incomplete_shorts : result -> int
val shorts_with_rto : result -> int
val long_goodput_mbps : result -> float array
(** Per long flow: received bytes over its active time, Mb/s. *)

val core_loss : result -> float
val agg_loss : result -> float
val core_utilisation : result -> float

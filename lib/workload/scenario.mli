(** Experiment driver: topology + roles + traffic + one transport.

    Reproduces the paper's Figure 1 setup: a fraction of hosts run
    long (background) flows; the rest emit fixed-size short flows
    scheduled by a Poisson process; everyone follows a traffic matrix;
    a single transport protocol serves the whole data centre.

    The driver is flow-model-agnostic: [config.model] selects the
    engine that serves the flows (packet stacks, fluid rate processes,
    or the hybrid handoff — see {!Flow_model}), and results carry the
    same shape for all three. *)

include module type of struct
  include Flow_model
end
(** The flow-mechanics types and values — {!model}, {!protocol},
    {!topology_kind}, {!obs_cfg}, {!config}, {!net_stats}, the paper
    presets — are {!Flow_model}'s, re-exported so experiment code
    writes [Scenario.Tcp_proto] and [{ Scenario.default_config with
    ... }]. *)

(** One flow's outcome, read off its flow-ledger entry. *)
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

(** Why a run ended. *)
type ending =
  | Shorts_closed
      (** every budgeted short had arrived and closed before the
          horizon *)
  | Horizon  (** the horizon came first, or there were no shorts *)

val ending_name : ending -> string
(** ["shorts-closed"] or ["horizon"], as the run manifest writes it. *)

type result = {
  config : config;
  shorts : flow_result array;  (** sorted by start time *)
  longs : flow_result array;
  net : net_stats;
  events : int;
  duration : Time.t;
      (** the instant the run ended: when its last short closed, or
          the horizon. Network and long-flow figures cover [0,
          duration]. *)
  ending : ending;
  obs : Sim_obs.Capture.t option;
      (** probe capture, when [config.obs.probe_interval] was set *)
  ledger : Sim_obs.Flow_ledger.dump option;
      (** per-flow lifecycle records in arrival order — the records
          [shorts] and [longs] are read from — when [config.obs.ledger]
          was set; identical across job counts *)
}

val run : config -> result
(** Simulate until every budgeted short flow has arrived and closed
    (no packet and no timer of it left; a fluid stage closes at
    completion), with [config.horizon] as a cap. A config without
    short flows, or whose arrivals run past the horizon, runs to the
    horizon. A run that ends early gives its probe one last sample at
    the end instant.

    Raises [Failure] when [config.obs.probe_conns] names only
    connections that never existed under the selected model — the
    message lists the components the model actually registered. In
    the dev profile it also raises [Failure] when a packet reached a
    closed connection, when a flow broke byte conservation (delivered
    more than its size, or completed without delivering all of it),
    or when a run that ended on its last close holds an unfinished
    short. *)

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

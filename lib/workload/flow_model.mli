(** Flow-model abstraction: how a scenario turns an arrival into a
    simulated transfer.

    The scenario driver (roles, traffic matrix, Poisson arrivals,
    result collection) is model-agnostic; everything transport- and
    network-mechanics-specific sits behind {!BACKEND}:

    - {b packet} — the full packet-level stacks (TCP / DCTCP / MPTCP /
      MMPTCP over queues and switches). Reference fidelity.
    - {b fluid} — flows as rate processes over shared link capacities
      ({!Sim_fluid.Engine}); analytic FCTs, O(log size) events per
      flow. Orders of magnitude faster at large scale.
    - {b hybrid} — flows start packet-level and promote to fluid once
      they have carried [handoff_bytes]; the two engines share link
      capacity through residual coupling (see DESIGN.md §4k).

    All three models consume the same {!config} and produce the same
    {!live} handles, so experiments, sinks and probes work unchanged
    across models. *)

module Time = Sim_engine.Sim_time

(** Which engine serves the flows. *)
type kind =
  | Packet
  | Fluid
  | Hybrid of { handoff_bytes : int }
      (** packet until [handoff_bytes] delivered, fluid after *)

val default_handoff_bytes : int
(** 100 KB: paper-sized short flows (70 KB) stay fully packet-level,
    long flows promote shortly after slow-start. *)

val kind_to_string : kind -> string
(** ["packet"], ["fluid"], ["hybrid:BYTES"] — inverse of
    {!kind_of_string}. *)

val kind_of_string : string -> (kind, string) result
(** Accepts ["packet"], ["fluid"], ["hybrid"] (default handoff) and
    ["hybrid:BYTES"]. *)

val pp_kind : Format.formatter -> kind -> unit

type protocol =
  | Tcp_proto
  | Dctcp_proto  (** requires ECN-enabled link specs in the topology *)
  | Mptcp_proto of { subflows : int; coupled : bool }
  | Mmptcp_proto of Mmptcp.Strategy.t

type topology_kind =
  | Fattree_topo of Sim_net.Fattree.params
  | Multihomed_topo of Sim_net.Multihomed.params
  | Vl2_topo of Sim_net.Vl2.params
  | Dumbbell_topo of { pairs : int; bottleneck : Sim_net.Topology.link_spec }

(** Observability switches, all off by default. *)
type obs_cfg = {
  probe_interval : Time.t option;
  probe_conns : int list option;
  ledger : bool;  (** record per-flow lifecycles in the flow ledger *)
  pin : unit;
      (** no switch: keeps [{ obs with ... }] updates that name the
          other three fields free of warning 23 (useless [with]) until
          perfbench/measure.ml stops using one — see ROADMAP item 1(e) *)
}

val default_obs : obs_cfg

type config = {
  model : kind;
  topo : topology_kind;
  protocol : protocol;
  seed : int;
  tm : Traffic_matrix.kind;
  long_fraction : float;
  long_size : int;
  short_size : int;
  short_flows : int;
  short_rate : float;
  horizon : Time.t;
  params : Sim_tcp.Tcp_params.t;
  obs : obs_cfg;
}

val paper_link_spec : Sim_net.Topology.link_spec
val paper_fattree : ?k:int -> ?oversub:int -> unit -> Sim_net.Fattree.params
val default_config : config
val protocol_name : protocol -> string

type net_stats = {
  ns_core_loss : float;
  ns_agg_loss : float;
  ns_core_utilisation : float;
}

(** A live flow: how to read its outcome after the run. The closures
    are model-specific; the fluid engine has no retransmissions, so
    its [l_rtos]/[l_frtx] are constant 0. *)
type live = {
  l_conn : int;  (** transport connection id (ledger key) *)
  l_src : int;
  l_dst : int;
  l_size : int;
  l_long : bool;
  l_start : Time.t;
  l_fct : unit -> Time.t option;
  l_rtos : unit -> int;
  l_frtx : unit -> int;
  l_bytes : unit -> int;
}

val build_topology :
  sched:Sim_engine.Scheduler.t -> topology_kind -> Sim_net.Topology.t

(** One flow model. [build] constructs whatever network state the
    model needs (always includes the packet topology — the fluid
    model reads capacities and delays off it); [start_flow] launches
    one transfer at the current virtual time and returns its outcome
    handle; [net_stats] is read once after the horizon. *)
module type BACKEND = sig
  type net

  val build : sched:Sim_engine.Scheduler.t -> config -> net
  val host_count : net -> int
  val name : net -> string

  val start_flow :
    config ->
    net ->
    rng:Sim_engine.Rng.t ->
    src_id:int ->
    dst_id:int ->
    size:int ->
    is_long:bool ->
    live

  val net_stats : net -> net_stats
end

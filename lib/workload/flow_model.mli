(** Flow-model abstraction: how a scenario turns an arrival into a
    simulated transfer.

    The scenario driver (roles, traffic matrix, Poisson arrivals,
    result collection) is model-agnostic; everything transport- and
    network-mechanics-specific sits behind {!BACKEND}:

    - {b packet} — the full packet-level stacks (TCP / MPTCP / MMPTCP
      over queues and switches). Reference fidelity.
    - {b fluid} — flows as rate processes over shared link capacities
      ({!Sim_fluid.Engine}); analytic FCTs, O(log size) events per
      flow. Orders of magnitude faster at large scale.
    - {b hybrid} — flows start packet-level and promote to fluid once
      they have carried [handoff_bytes]; the two engines share link
      capacity through residual coupling (see DESIGN.md §4k).

    All three models consume the same {!config} and report every
    flow's outcome to the simulation's flow ledger
    ({!Sim_obs.Flow_ledger}) through the same hooks, so experiments,
    sinks and probes work unchanged across models. *)

module Time = Sim_engine.Sim_time

(** Which engine serves the flows. *)
type model =
  | Packet  (** full packet-level stacks (reference fidelity) *)
  | Fluid  (** flows as rate processes, analytic FCTs *)
  | Hybrid of { handoff_bytes : int }
      (** packet until [handoff_bytes] delivered, fluid after *)

val default_handoff_bytes : int
(** 100 KB: paper-sized short flows (70 KB) stay fully packet-level,
    long flows promote shortly after slow-start. *)

val model_name : model -> string
(** ["packet"], ["fluid"], ["hybrid:BYTES"] — inverse of
    {!model_of_string}. *)

val model_of_string : string -> (model, string) result
(** Accepts ["packet"], ["fluid"], ["hybrid"] (default handoff) and
    ["hybrid:BYTES"]. *)

type protocol =
  | Tcp_proto
  | Mptcp_proto of { subflows : int; coupled : bool }
  | Mmptcp_proto of Mmptcp.Strategy.t

type topology_kind =
  | Fattree_topo of Sim_net.Fattree.params
  | Multihomed_topo of Sim_net.Multihomed.params
  | Vl2_topo of Sim_net.Vl2.params
  | Dumbbell_topo of { pairs : int; bottleneck : Sim_net.Topology.link_spec }

(** Observability switches, all off by default. They are read-only
    taps: they never change flow behaviour (probing only adds sampler
    timer events to the schedule). *)
type obs_cfg = {
  probe_interval : Time.t option;
      (** sample registered gauges every this much virtual time *)
  probe_conns : int list option;
      (** restrict connection-scoped instruments to these conn ids *)
  ledger : bool;
      (** return the flow ledger's dump ({!Sim_obs.Flow_ledger}) with
          the result. Every run records the ledger and reads its flow
          results off it; this switch changes nothing else. *)
  pin : unit;
      (** no switch: keeps [{ obs with ... }] updates that name the
          other three fields free of warning 23 (useless [with]) until
          perfbench/measure.ml stops using one — see ROADMAP item 3 *)
}

val default_obs : obs_cfg

type config = {
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
  horizon : Time.t;
      (** cap: a run ends sooner, once every short flow has closed *)
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

type net_stats = {
  ns_core_loss : float;
  ns_agg_loss : float;
  ns_core_utilisation : float;
}
(** Network-side aggregates, read off the topology before it is
    discarded. Precomputed (rather than keeping the topology handle in
    the result) so a scenario result is pure data end to end —
    process-mode workers marshal results back to the coordinating
    process. *)

val build_topology :
  sched:Sim_engine.Scheduler.t -> topology_kind -> Sim_net.Topology.t

(** One flow model. [build] constructs whatever network state the
    model needs (always includes the packet topology — the fluid
    model reads capacities and delays off it — which [topology]
    returns). [start_flow] launches one transfer at the current
    virtual time and returns its connection id, the flow's key in the
    ledger; fct, retransmit counts and delivered bytes reach the
    ledger through its hooks, each transport stage adding its bytes
    once, when its connection closes. [on_close] fires once, when the
    whole transfer is closed: a packet connection once no packet and
    no timer of it is left, a fluid one at completion, and a hybrid
    one once both of its stages are. [finish] is called once, after
    the run: it adds the bytes of every stage still open, then reads
    the network aggregates. *)
module type BACKEND = sig
  type net

  val build : sched:Sim_engine.Scheduler.t -> config -> net
  val topology : net -> Sim_net.Topology.t

  val start_flow :
    config ->
    net ->
    rng:Sim_engine.Rng.t ->
    src_id:int ->
    dst_id:int ->
    size:int ->
    on_close:(unit -> unit) ->
    int

  val finish : net -> net_stats
end

module Time = Sim_engine.Sim_time

type model =
  | Packet
  | Fluid
  | Hybrid of { handoff_bytes : int }

(* Paper-sized shorts (70 KB) stay fully packet-level; longs promote
   shortly after slow-start has filled their window. *)
let default_handoff_bytes = 100_000

let model_name = function
  | Packet -> "packet"
  | Fluid -> "fluid"
  | Hybrid { handoff_bytes } -> Printf.sprintf "hybrid:%d" handoff_bytes

let model_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "packet" -> Ok Packet
  | "fluid" -> Ok Fluid
  | "hybrid" -> Ok (Hybrid { handoff_bytes = default_handoff_bytes })
  | s when String.length s > 7 && String.sub s 0 7 = "hybrid:" -> (
    let arg = String.sub s 7 (String.length s - 7) in
    match int_of_string_opt arg with
    | Some b when b > 0 -> Ok (Hybrid { handoff_bytes = b })
    | _ -> Error (Printf.sprintf "invalid hybrid handoff %S (want bytes > 0)" arg))
  | _ ->
    Error
      (Printf.sprintf "unknown flow model %S (expected packet|fluid|hybrid[:BYTES])" s)

type protocol =
  | Tcp_proto
  | Mptcp_proto of { subflows : int; coupled : bool }
  | Mmptcp_proto of Mmptcp.Strategy.t

type topology_kind =
  | Fattree_topo of Sim_net.Fattree.params
  | Multihomed_topo of Sim_net.Multihomed.params
  | Vl2_topo of Sim_net.Vl2.params
  | Dumbbell_topo of { pairs : int; bottleneck : Sim_net.Topology.link_spec }

type obs_cfg = {
  probe_interval : Time.t option;
  probe_conns : int list option;
  ledger : bool;
  pin : unit;
}

let default_obs =
  {
    probe_interval = None;
    probe_conns = None;
    ledger = false;
    pin = ();
  }

type config = {
  model : model;
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

(* Link configuration for the paper experiments: 100 Mb/s with
   50-packet drop-tail queues. Shallower than ns-3's 100-packet
   default — at 100 Mb/s a full 100-packet queue adds 12 ms of skew,
   deeper than the shared-memory switches of the paper's era; 50
   packets keeps queueing delay in the regime where the paper's
   observed FCT distributions (most shorts < 100 ms) are achievable. *)
let paper_link_spec =
  { Sim_net.Topology.default_link_spec with queue_capacity = 50 }

let paper_fattree ?(k = 4) ?(oversub = 4) () =
  {
    (Sim_net.Fattree.default_params ~k ~oversub ()) with
    Sim_net.Fattree.host_spec = paper_link_spec;
    fabric_spec = paper_link_spec;
  }

let default_config =
  {
    model = Packet;
    topo = Fattree_topo (paper_fattree ());
    protocol = Mptcp_proto { subflows = 8; coupled = true };
    seed = 1;
    tm = Traffic_matrix.Permutation;
    long_fraction = 1. /. 3.;
    long_size = 1_000_000_000;
    short_size = 70_000;
    short_flows = 1_000;
    short_rate = 25.;
    horizon = Time.of_sec 20.;
    params = Sim_tcp.Tcp_params.default;
    obs = default_obs;
  }

let protocol_name = function
  | Tcp_proto -> "tcp"
  | Mptcp_proto { subflows; coupled } ->
    Printf.sprintf "mptcp-%d%s" subflows (if coupled then "" else "-uncoupled")
  | Mmptcp_proto s ->
    Printf.sprintf "mmptcp-%d[%s]" s.Mmptcp.Strategy.subflows
      (Mmptcp.Strategy.switch_to_string s.Mmptcp.Strategy.switch)

type net_stats = {
  ns_core_loss : float;
  ns_agg_loss : float;
  ns_core_utilisation : float;
}

let build_topology ~sched = function
  | Fattree_topo p -> Sim_net.Fattree.create ~sched p
  | Multihomed_topo p -> Sim_net.Multihomed.create ~sched p
  | Vl2_topo p -> Sim_net.Vl2.create ~sched p
  | Dumbbell_topo { pairs; bottleneck } ->
    Sim_net.Dumbbell.create ~sched ~bottleneck_spec:bottleneck ~pairs ()

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
    int

  val finish : net -> net_stats
end

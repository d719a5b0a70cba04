(* Packet-level flow model: the full TCP/MPTCP/MMPTCP stacks
   over queues and switches. This is the reference-fidelity backend. *)

module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Topology = Sim_net.Topology
module Host = Sim_net.Host
module Flow_ledger = Sim_obs.Flow_ledger
module Flow = Sim_tcp.Flow
module Mmptcp_conn = Mmptcp.Mmptcp_conn

(* [conns] holds the connections still open, by conn id. A connection
   adds its delivered bytes to the ledger once: when it closes, which
   also drops it from the table (so nothing keeps a finished
   connection's subflows, buffers and timers alive until the horizon),
   or from [finish] if it is still open then. *)
type net = {
  topo : Topology.t;
  ledger : Flow_ledger.t;
  conns : (int, Flow.t) Hashtbl.t;
}

let on_topology topo =
  {
    topo;
    ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx topo.Topology.sched);
    conns = Hashtbl.create 64;
  }

let build ~sched (cfg : Flow_model.config) =
  on_topology (Flow_model.build_topology ~sched cfg.Flow_model.topo)

let topology net = net.topo

(* Transports close only from host delivery, never inside their own
   [start], so a connection is in the table before it can close. *)
let track net f =
  let conn = Flow.conn f in
  Hashtbl.replace net.conns conn f;
  conn

let close net on_close f =
  let conn = Flow.conn f in
  Hashtbl.remove net.conns conn;
  Flow_ledger.add_bytes net.ledger ~conn (Flow.bytes_received f);
  on_close ()

(* [on_complete] additionally reports whether an MMPTCP connection had
   already switched to its multipath phase when it finished — the
   hybrid model resumes the fluid stage in the matching phase. *)
let start_flow_ext (cfg : Flow_model.config) net ~rng ~src_id ~dst_id ~size
    ~on_complete ~on_close =
  let src = Topology.host net.topo src_id
  and dst = Topology.host net.topo dst_id in
  let params = cfg.Flow_model.params in
  let on_close = close net on_close in
  track net
    (match cfg.Flow_model.protocol with
    | Flow_model.Tcp_proto ->
      Flow.start ~src ~dst ~size ~params
        ~on_complete:(fun _ -> on_complete ~switched:false)
        ~on_close ()
    | Flow_model.Mptcp_proto { subflows; coupled } ->
      Flow.start_mptcp ~src ~dst ~size ~subflows ~params ~coupled
        ~on_complete:(fun _ -> on_complete ~switched:false)
        ~on_close ()
    | Flow_model.Mmptcp_proto strategy ->
      let paths = Topology.paths net.topo ~src:src_id ~dst:dst_id in
      Mmptcp_conn.flow
        (Mmptcp_conn.start ~src ~dst ~size ~rng:(Rng.split rng) ~strategy
           ~params ~paths
           ~on_complete:(fun c ->
             on_complete
               ~switched:(Mmptcp_conn.phase c = Mmptcp_conn.Multipath))
           ~on_close:(fun c -> on_close (Mmptcp_conn.flow c))
           ()))

let start_flow cfg net ~rng ~src_id ~dst_id ~size ~on_close =
  start_flow_ext cfg net ~rng ~src_id ~dst_id ~size
    ~on_complete:(fun ~switched:_ -> ())
    ~on_close

let finish net =
  Hashtbl.iter
    (fun conn f ->
      Flow_ledger.add_bytes net.ledger ~conn (Flow.bytes_received f))
    net.conns;
  {
    Flow_model.ns_core_loss =
      Topology.layer_loss_rate net.topo Sim_net.Layer.Core_layer;
    ns_agg_loss = Topology.layer_loss_rate net.topo Sim_net.Layer.Agg_layer;
    ns_core_utilisation =
      Topology.layer_utilisation net.topo Sim_net.Layer.Core_layer;
  }

(* Packet-level flow model: the full TCP/DCTCP/MPTCP/MMPTCP stacks
   over queues and switches. This is the reference-fidelity backend. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Topology = Sim_net.Topology
module Host = Sim_net.Host

type net = Topology.t

let build ~sched (cfg : Flow_model.config) =
  Flow_model.build_topology ~sched cfg.Flow_model.topo

let topology net = net

(* A connection's outcome, read from the connection until it closes
   and from the final values it left behind after that, so the handle
   does not keep a finished connection — its subflows, buffers and
   timers — alive until the horizon. *)
type 'c outcome = {
  mutable conn : 'c option;  (* [None] once closed *)
  mutable fct : Time.t option;
  mutable rtos : int;
  mutable frtx : int;
  mutable bytes : int;
}

(* How to read one transport's outcome. *)
type 'c reader = {
  r_fct : 'c -> Time.t option;
  r_rtos : 'c -> int;
  r_frtx : 'c -> int;
  r_bytes : 'c -> int;
}

let flow_reader =
  let stats f = Sim_tcp.Tcp_tx.stats (Sim_tcp.Flow.tx f) in
  {
    r_fct = Sim_tcp.Flow.fct;
    r_rtos = (fun f -> (stats f).Sim_tcp.Tcp_tx.rto_events);
    r_frtx = (fun f -> (stats f).Sim_tcp.Tcp_tx.fast_rtx_events);
    r_bytes = Sim_tcp.Flow.bytes_received;
  }

let mptcp_reader =
  {
    r_fct = Sim_mptcp.Mptcp_conn.fct;
    r_rtos = Sim_mptcp.Mptcp_conn.rto_events;
    r_frtx = Sim_mptcp.Mptcp_conn.fast_rtx_events;
    r_bytes = Sim_mptcp.Mptcp_conn.bytes_received;
  }

let mmptcp_reader =
  {
    r_fct = Mmptcp.Mmptcp_conn.fct;
    r_rtos = Mmptcp.Mmptcp_conn.rto_events;
    r_frtx = Mmptcp.Mmptcp_conn.fast_rtx_events;
    r_bytes = Mmptcp.Mmptcp_conn.bytes_received;
  }

(* Start a connection through [open_conn], handing it the close hook
   that snapshots its outcome, and wrap the result in a live handle.
   Transports close only from host delivery, never inside their own
   [start], so the handle is in place before the hook can fire. *)
let live r ~conn_id ~src_id ~dst_id ~size ~is_long ~start open_conn =
  let o = { conn = None; fct = None; rtos = 0; frtx = 0; bytes = 0 } in
  let c =
    open_conn ~on_close:(fun c ->
        o.fct <- r.r_fct c;
        o.rtos <- r.r_rtos c;
        o.frtx <- r.r_frtx c;
        o.bytes <- r.r_bytes c;
        o.conn <- None)
  in
  o.conn <- Some c;
  let read f final () = match o.conn with Some c -> f c | None -> final o in
  {
    Flow_model.l_conn = conn_id c;
    l_src = src_id;
    l_dst = dst_id;
    l_size = size;
    l_long = is_long;
    l_start = start;
    l_fct = read r.r_fct (fun o -> o.fct);
    l_rtos = read r.r_rtos (fun o -> o.rtos);
    l_frtx = read r.r_frtx (fun o -> o.frtx);
    l_bytes = read r.r_bytes (fun o -> o.bytes);
  }

(* [on_complete] additionally reports whether an MMPTCP connection had
   already switched to its multipath phase when it finished — the
   hybrid model resumes the fluid stage in the matching phase. *)
let start_flow_ext (cfg : Flow_model.config) (net : net) ~rng ~src_id ~dst_id
    ~size ~is_long ~on_complete =
  let sched = net.Topology.sched in
  let src = Topology.host net src_id and dst = Topology.host net dst_id in
  let live r conn_id open_conn =
    live r ~conn_id ~src_id ~dst_id ~size ~is_long ~start:(Scheduler.now sched)
      open_conn
  in
  let params = cfg.Flow_model.params in
  let tcp ?cc () =
    live flow_reader Sim_tcp.Flow.conn (fun ~on_close ->
        Sim_tcp.Flow.start ~src ~dst ~size ~params ?cc
          ~on_complete:(fun _ -> on_complete ~switched:false)
          ~on_close ())
  in
  match cfg.Flow_model.protocol with
  | Flow_model.Tcp_proto -> tcp ()
  | Flow_model.Dctcp_proto -> tcp ~cc:(fun w -> Sim_dctcp.Dctcp.make w) ()
  | Flow_model.Mptcp_proto { subflows; coupled } ->
    live mptcp_reader Sim_mptcp.Mptcp_conn.conn (fun ~on_close ->
        Sim_mptcp.Mptcp_conn.start ~src ~dst ~size ~subflows ~params ~coupled
          ~on_complete:(fun _ -> on_complete ~switched:false)
          ~on_close ())
  | Flow_model.Mmptcp_proto strategy ->
    let paths = net.Topology.path_count (Host.addr src) (Host.addr dst) in
    live mmptcp_reader Mmptcp.Mmptcp_conn.conn (fun ~on_close ->
        Mmptcp.Mmptcp_conn.start ~src ~dst ~size ~rng:(Rng.split rng) ~strategy
          ~params ~paths
          ~on_complete:(fun c ->
            on_complete
              ~switched:
                (Mmptcp.Mmptcp_conn.phase c = Mmptcp.Mmptcp_conn.Multipath))
          ~on_close ())

let start_flow cfg net ~rng ~src_id ~dst_id ~size ~is_long =
  start_flow_ext cfg net ~rng ~src_id ~dst_id ~size ~is_long
    ~on_complete:(fun ~switched:_ -> ())

let net_stats (net : net) =
  {
    Flow_model.ns_core_loss =
      Topology.layer_loss_rate net Sim_net.Layer.Core_layer;
    ns_agg_loss = Topology.layer_loss_rate net Sim_net.Layer.Agg_layer;
    ns_core_utilisation =
      Topology.layer_utilisation net Sim_net.Layer.Core_layer;
  }

(* Fluid flow-level model: flows are rate processes over shared link
   capacities instead of packet exchanges. The packet topology is
   still built — the engine reads link capacities and delays off it,
   and its route tables enumerate forward paths — but no packet ever
   enters a queue. Each flow costs O(log size) events end to end,
   which is what makes 10^5-flow FatTrees tractable (DESIGN.md §4k).

   Protocol mapping:
   - TCP: one leg, unit weight, on a random ECMP path — a fair-share
     rate process.
   - MPTCP: [subflows] legs on random ECMP paths. Coupled gets
     LIA-equilibrium weights (sum 1, biased to low-RTT legs,
     {!Sim_tcp.Cong.Lia.fluid_weights}); uncoupled gets unit weight per
     leg, i.e. one fair share each.
   - MMPTCP: phase 1 spreads one aggregate share across min(paths, 8)
     scatter legs (weight 1/P each — packet scatter sprays a single
     window, it does not multiply aggressiveness); under [Data_volume]
     the engine swaps in LIA-weighted subflow legs once that many bytes
     are done. Their paths are drawn with the scatter legs but built
     only at the switch, which a short flow never reaches. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Topology = Sim_net.Topology
module Link = Sim_net.Link
module Engine = Sim_fluid.Engine

(* [conns] holds the transfers still open, by conn id. A transfer adds
   its delivered bytes to the ledger once: at completion, which also
   drops it from the table, or from [finish] if it is still open
   then. *)
type net = {
  topo : Topology.t;
  engine : Engine.t;
  ledger : Sim_obs.Flow_ledger.t;
  conns : (int, Engine.conn) Hashtbl.t;
}

let build ~sched (cfg : Flow_model.config) =
  let topo = Flow_model.build_topology ~sched cfg.Flow_model.topo in
  (* The engine indexes capacity by link id; builder ids are dense in
     creation order, so the links array is the id->capacity map. *)
  Array.iteri
    (fun i l -> if Link.id l <> i then invalid_arg "fluid: non-dense link ids")
    topo.Topology.links;
  let cap_bps = Array.map Link.rate_bps topo.Topology.links in
  let engine = Engine.make ~sched ~cap_bps ~params:cfg.Flow_model.params () in
  {
    topo;
    engine;
    ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched);
    conns = Hashtbl.create 64;
  }

let topology net = net.topo
let engine net = net.engine

(* One-way traversal time of [path] for a [bytes]-long frame:
   store-and-forward serialisation plus propagation at every hop. *)
let path_time net ~bytes path =
  Array.fold_left
    (fun acc li ->
      let l = net.topo.Topology.links.(li) in
      acc
      +. Time.to_sec (Link.delay l)
      +. (float_of_int (bytes * 8) /. Link.rate_bps l))
    0. path

let ack_bytes = 40
let scatter_cap = 8

(* [legs] with LIA-equilibrium weights over their RTTs. *)
let lia_weighted legs =
  let rtts = Array.map (fun l -> l.Engine.rtt_s) legs in
  Array.map2
    (fun l weight -> { l with Engine.weight })
    legs (Sim_tcp.Cong.Lia.fluid_weights ~rtts)

(* Legs (and the optional scatter->multipath switch) for one transfer
   of [cfg.protocol] between [src] and [dst]. [assume_switched] makes
   MMPTCP start directly in its multipath phase — the hybrid model
   passes the packet stage's exit phase here. *)
let transport_plan (cfg : Flow_model.config) net ~rng ~src ~dst ~assume_switched
    =
  let paths = max 1 (Topology.paths net.topo ~src ~dst) in
  let rev_paths = max 1 (Topology.paths net.topo ~src:dst ~dst:src) in
  let data = cfg.Flow_model.params.Sim_tcp.Tcp_params.mss + ack_bytes in
  (* A leg on forward path [choice]; its ACKs take the reverse path of
     the same index, wrapped. *)
  let leg choice ~weight =
    let path = Topology.path net.topo ~src ~dst ~choice in
    let rev =
      Topology.path net.topo ~src:dst ~dst:src ~choice:(choice mod rev_paths)
    in
    let rtt_s = path_time net ~bytes:data path +. path_time net ~bytes:ack_bytes rev in
    { Engine.path; weight; rtt_s }
  in
  let mptcp_legs ~subflows ~coupled =
    let legs = Array.init subflows (fun _ -> leg (Rng.int rng paths) ~weight:1.) in
    if coupled then lia_weighted legs else legs
  in
  match cfg.Flow_model.protocol with
  | Flow_model.Tcp_proto ->
    ([| leg (Rng.int rng paths) ~weight:1. |], None)
  | Flow_model.Mptcp_proto { subflows; coupled } ->
    (mptcp_legs ~subflows ~coupled, None)
  | Flow_model.Mmptcp_proto strategy ->
    let subflows = strategy.Mmptcp.Strategy.subflows in
    if assume_switched then (mptcp_legs ~subflows ~coupled:true, None)
    else begin
      let p = min paths scatter_cap in
      let w = 1. /. float_of_int p in
      let scatter =
        (* <= cap: one leg per path, the fluid image of spraying every
           packet; beyond the cap, sample. *)
        Array.init p (fun i ->
            let choice = if paths <= scatter_cap then i else Rng.int rng paths in
            leg choice ~weight:w)
      in
      match strategy.Mmptcp.Strategy.switch with
      | Mmptcp.Strategy.Data_volume v ->
        (* The subflows' choices are drawn now, in the RNG order of an
           eager build; their legs are built only if the switch fires. *)
        let choices = Array.init subflows (fun _ -> Rng.int rng paths) in
        let sw_legs () =
          lia_weighted (Array.map (fun choice -> leg choice ~weight:1.) choices)
        in
        (scatter, Some { Engine.sw_after_bytes = v; sw_legs })
      | Mmptcp.Strategy.Congestion_event | Mmptcp.Strategy.Never ->
        (* Loss has no fluid analogue. *)
        (scatter, None)
    end

let add_bytes net c =
  Sim_obs.Flow_ledger.add_bytes net.ledger ~conn:(Engine.conn_id c)
    (Engine.conn_bytes c)

let start_conn net ?resume_from ?switch ~legs ~size () =
  let c =
    Engine.start net.engine ?resume_from ?switch ~legs ~size
      ~on_complete:(fun c ->
        Hashtbl.remove net.conns (Engine.conn_id c);
        add_bytes net c)
      ()
  in
  Hashtbl.replace net.conns (Engine.conn_id c) c;
  c

let start_flow (cfg : Flow_model.config) net ~rng ~src_id ~dst_id ~size =
  let legs, switch =
    transport_plan cfg net ~rng ~src:src_id ~dst:dst_id ~assume_switched:false
  in
  Engine.conn_id (start_conn net ?switch ~legs ~size ())

let finish net =
  Hashtbl.iter (fun _ c -> add_bytes net c) net.conns;
  Engine.finalize net.engine;
  let layer_util layer =
    match Topology.layer_links net.topo layer with
    | [] -> 0.
    | ls ->
      List.fold_left
        (fun acc l ->
          acc +. Engine.link_utilisation net.engine ~link:(Link.id l))
        0. ls
      /. float_of_int (List.length ls)
  in
  {
    (* No queues, no drops: fluid loss is identically zero. *)
    Flow_model.ns_core_loss = 0.;
    ns_agg_loss = 0.;
    ns_core_utilisation = layer_util Sim_net.Layer.Core_layer;
  }

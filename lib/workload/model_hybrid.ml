(* Hybrid flow model: every flow starts on the packet stacks and, once
   it has carried [handoff_bytes], continues as a fluid rate process.
   Short flows (below the threshold) live and die packet-level —
   keeping the latency phenomena the paper studies (queueing, loss,
   RTO) at full fidelity — while the long background flows that
   dominate simulation cost promote to O(log size)-event fluid
   transfers shortly after slow-start.

   The two engines share link capacity through residual coupling,
   sampled on a periodic timer (2 ms virtual):
   - packet -> fluid: the allocator's per-link available capacity is
     the nominal rate minus an EWMA of measured packet throughput
     ({!Sim_fluid.Alloc.set_avail} via the engine);
   - fluid -> packet: each link's committed fluid allocation is
     mirrored into {!Sim_net.Link.set_reserved_bps}, stretching packet
     serialisation onto the residual rate.
   The sampler runs only while fluid connections exist; reservations
   are cleared when the last one drains, so a hybrid run with no
   promotions is packet-identical. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Link = Sim_net.Link
module Engine = Sim_fluid.Engine

type net = {
  fnet : Model_fluid.net;
  pnet : Model_packet.net;  (* over [fnet]'s topology *)
  handoff : int;
  (* residual-coupling state, indexed by link id *)
  prev_tx : int array;  (* tx_bytes at the previous sample *)
  pkt_rate : float array;  (* EWMA packet throughput, bps *)
  avail_set : float array;  (* last value pushed into the allocator *)
  mutable sampler : Scheduler.Timer.t option;
}

let couple_interval_s = 2e-3
let couple_interval = Time.of_sec couple_interval_s
let ewma_alpha = 0.3

(* Only disturb the allocator when a link's residual moved by more
   than this fraction of capacity: set_avail dirties every member
   flow, and re-waterfilling the whole population every 2 ms would
   defeat the scoped-recomputation design. *)
let avail_quantum = 0.005

let rec build ~sched (cfg : Flow_model.config) =
  let fnet = Model_fluid.build ~sched cfg in
  let handoff =
    match cfg.Flow_model.model with
    | Flow_model.Hybrid { handoff_bytes } -> handoff_bytes
    | Flow_model.Packet | Flow_model.Fluid -> Flow_model.default_handoff_bytes
  in
  let topo = Model_fluid.topology fnet in
  let nlinks = Array.length topo.Topology.links in
  let net =
    {
      fnet;
      pnet = Model_packet.on_topology topo;
      handoff;
      prev_tx = Array.make nlinks 0;
      pkt_rate = Array.make nlinks 0.;
      avail_set = Array.map Link.rate_bps topo.Topology.links;
      sampler = None;
    }
  in
  net.sampler <- Some (Scheduler.Timer.create sched sample net);
  net

and sample net =
  let topo = Model_fluid.topology net.fnet in
  let engine = Model_fluid.engine net.fnet in
  let links = topo.Topology.links in
  for i = 0 to Array.length links - 1 do
    let l = links.(i) in
    let tx = (Link.stats l).Link.tx_bytes in
    let inst =
      float_of_int ((tx - net.prev_tx.(i)) * 8) /. couple_interval_s
    in
    net.prev_tx.(i) <- tx;
    net.pkt_rate.(i) <-
      (ewma_alpha *. inst) +. ((1. -. ewma_alpha) *. net.pkt_rate.(i));
    let cap = Link.rate_bps l in
    let avail = cap -. net.pkt_rate.(i) in
    if Float.abs (avail -. net.avail_set.(i)) > avail_quantum *. cap then begin
      Engine.set_link_avail engine ~link:i avail;
      net.avail_set.(i) <- avail
    end;
    Link.set_reserved_bps l (Engine.link_alloc_bps engine ~link:i)
  done;
  Engine.flush engine;
  if Engine.active engine > 0 then
    match net.sampler with
    | Some t -> Scheduler.Timer.schedule_after t couple_interval
    | None -> ()
  else
    (* Last fluid connection drained: stop sampling and hand the full
       link rates back to the packet engine. *)
    Array.iter (fun l -> Link.set_reserved_bps l 0.) links

let ensure_sampling net =
  match net.sampler with
  | Some t when not (Scheduler.Timer.is_pending t) ->
    Scheduler.Timer.schedule_after t couple_interval
  | _ -> ()

let topology net = Model_fluid.topology net.fnet

let start_flow (cfg : Flow_model.config) net ~rng ~src_id ~dst_id ~size
    ~on_close =
  if size <= net.handoff then
    (* Whole flow fits the packet stage: run it there, untouched. *)
    Model_packet.start_flow cfg net.pnet ~rng ~src_id ~dst_id ~size ~on_close
  else begin
    let stage1 = net.handoff in
    (* The flow is closed once both stages are: the packet stage's
       connection, and the fluid continuation it starts. *)
    let open_stages = ref 2 in
    let stage_closed () =
      decr open_stages;
      if !open_stages = 0 then on_close ()
    in
    let ctx = Scheduler.ctx (topology net).Topology.sched in
    let ledger = Sim_engine.Sim_ctx.ledger ctx in
    (* Set once start_flow_ext returns, read when the packet stage
       completes (always after start: the stage transfers >= 1 byte). *)
    let pkt_conn = ref (-1) in
    let promote ~switched =
      let legs, switch =
        Model_fluid.transport_plan cfg net.fnet ~rng ~src:src_id ~dst:dst_id
          ~assume_switched:switched
      in
      let c =
        Model_fluid.start_conn net.fnet ~resume_from:stage1 ?switch ~legs
          ~size:(size - stage1) ~on_close:stage_closed ()
      in
      (* The fluid continuation's conn id becomes an alias of the
         packet-stage ledger record, so stage-2 events — completion and
         delivered bytes — land on the one flow entry. A resumed
         connection starts running synchronously, before the alias
         exists, so its handshake hook is dropped — the record keeps
         the packet-stage handshake timestamp, which is the real
         one. *)
      Sim_obs.Flow_ledger.on_promote ledger ~conn:!pkt_conn
        ~cont:(Engine.conn_id c);
      (let m = Sim_engine.Sim_ctx.metrics ctx in
       (* The info list would allocate before [emit]'s own guard. *)
       if Sim_obs.Metrics.active m then
         Sim_obs.Metrics.emit m ~kind:"promotion" ~conn:!pkt_conn
           ~info:
             [
               ("cont", string_of_int (Engine.conn_id c));
               ("done_bytes", string_of_int stage1);
               ("switched", string_of_bool switched);
             ]
           ());
      ensure_sampling net
    in
    pkt_conn :=
      Model_packet.start_flow_ext cfg net.pnet ~rng ~src_id ~dst_id ~size:stage1
        ~on_complete:(fun ~switched -> promote ~switched)
        ~on_close:stage_closed;
    !pkt_conn
  end

let finish net =
  let p = Model_packet.finish net.pnet in
  let f = Model_fluid.finish net.fnet in
  {
    p with
    (* Utilisation is additive: the packet side measures transmitter
       busy fraction (serialisation runs on the residual rate), the
       fluid side allocated fraction of nominal capacity. *)
    Flow_model.ns_core_utilisation =
      Float.min 1.
        (p.Flow_model.ns_core_utilisation +. f.Flow_model.ns_core_utilisation);
  }

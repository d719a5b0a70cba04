module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Host = Sim_net.Host
module Flow = Sim_tcp.Flow
module Tcp_tx = Sim_tcp.Tcp_tx
module Dataplane = Sim_tcp.Dataplane

type phase = Packet_scatter | Multipath

type t = {
  flow : Flow.t;
  sched : Scheduler.t;
  strategy : Strategy.t;
  rng : Rng.t;
  mutable phase : phase;
  mutable switched_at : Time.t option;
  mutable dupack_threshold : int;
  dupack_cap : int;
  on_switch : t -> unit;
}

(* Phase switching: open the MPTCP subflows and starve the scatter
   flow of new data. Idempotent; a no-op once the transfer is complete
   (the scatter sender's RTO can fire after the receiver holds every
   byte, when the last ACKs were lost). *)
let trigger_switch t =
  let plane = Flow.plane t.flow in
  if t.phase = Packet_scatter && not (Dataplane.is_complete plane) then begin
    let conn = Flow.conn t.flow in
    t.phase <- Multipath;
    t.switched_at <- Some (Scheduler.now t.sched);
    Sim_obs.Flow_ledger.on_phase_switch
      (Sim_engine.Sim_ctx.ledger (Scheduler.ctx t.sched))
      ~conn;
    Sim_obs.Metrics.emit
      (Sim_engine.Sim_ctx.metrics (Scheduler.ctx t.sched))
      ~kind:"phase_switch" ~conn
      ~info:
        [
          ("to", "multipath");
          ("subflows", string_of_int t.strategy.Strategy.subflows);
          ("assigned", string_of_int (Dataplane.assigned plane));
        ]
      ();
    let opened =
      Array.init t.strategy.Strategy.subflows (fun j ->
          Flow.add_subflow t.flow ~port:(30_000 + (conn * 131) + ((j + 1) * 7)))
    in
    Array.iter Tcp_tx.connect opened;
    t.on_switch t
  end

(* The scatter subflow's source: data-level chunks until the switch,
   nothing after it (its window then drains). *)
let scatter_pull t ~max =
  match t.phase with
  | Multipath -> None
  | Packet_scatter -> (
    let plane = Flow.plane t.flow in
    match t.strategy.Strategy.switch with
    | Strategy.Data_volume v when Dataplane.assigned plane >= v ->
      trigger_switch t;
      None
    | Strategy.Data_volume _ | Strategy.Congestion_event | Strategy.Never ->
      Dataplane.pull plane ~max)

let initial_threshold strategy ~paths =
  match strategy with
  | Strategy.Static k -> max 1 k
  | Strategy.Topology_aware -> max 3 paths
  | Strategy.Adaptive { initial; _ } -> max 1 initial

let start ~src ~dst ~size ~rng ?(strategy = Strategy.default)
    ?(params = Sim_tcp.Tcp_params.default) ?(paths = 1)
    ?(on_complete = fun _ -> ()) ?(on_switch = fun _ -> ())
    ?(on_close = fun _ -> ()) () =
  if strategy.Strategy.subflows < 1 then
    invalid_arg "Mmptcp_conn.start: subflows must be >= 1";
  let sched = Host.sched src in
  let dupack_threshold = initial_threshold strategy.Strategy.dupack ~paths in
  (* Only [Adaptive] raises its threshold; the others stay where they
     start. *)
  let dupack_cap =
    match strategy.Strategy.dupack with
    | Strategy.Adaptive { cap; _ } -> cap
    | Strategy.Static _ | Strategy.Topology_aware -> dupack_threshold
  in
  let rec t =
    lazy
      {
        flow =
          Flow.create ~src ~dst ~size ~params ~coupled:true
            ~on_complete:(fun _ -> on_complete (Lazy.force t))
            ~on_close:(fun _ -> on_close (Lazy.force t));
        sched;
        strategy;
        rng;
        phase = Packet_scatter;
        switched_at = None;
        dupack_threshold;
        dupack_cap;
        on_switch;
      }
  in
  let t = Lazy.force t in
  let conn = Flow.conn t.flow in
  (let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched) in
   if Sim_obs.Metrics.want_conn m conn then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"mmptcp"
         ~id:(Printf.sprintf "c%d" conn)
         ~name ~units read
     in
     reg "phase" "enum" (fun () ->
         match t.phase with Packet_scatter -> 0. | Multipath -> 1.);
     reg "subflows_active" "subflows" (fun () ->
         float_of_int (Flow.subflow_count t.flow));
     reg "dupack_threshold" "acks" (fun () ->
         float_of_int t.dupack_threshold);
     reg "bytes_received" "bytes" (fun () ->
         float_of_int (Flow.bytes_received t.flow))
   end);
  (* Per-packet source-port randomisation: this is what makes ECMP
     scatter the flow, and it applies to retransmissions too — a
     retransmitted packet takes a fresh random path. *)
  let scatter_port () = 1024 + Rng.int t.rng 60_000 in
  let on_first_congestion () =
    match t.strategy.Strategy.switch with
    | Strategy.Congestion_event -> trigger_switch t
    | Strategy.Data_volume _ | Strategy.Never -> ()
  in
  let on_dsack () =
    match t.strategy.Strategy.dupack with
    | Strategy.Adaptive _ ->
      if t.dupack_threshold < t.dupack_cap then
        t.dupack_threshold <- t.dupack_threshold + 1
    | Strategy.Static _ | Strategy.Topology_aware -> ()
  in
  let scatter =
    Flow.add_sender t.flow (fun subflow ->
        Tcp_tx.create ~host:src ~peer:(Host.addr dst) ~conn ~subflow ~params
          ~src_port:scatter_port ~dst_port:5001 ~source:(scatter_pull t)
          ~cc:Sim_tcp.Cong.Reno
          ~dupack_threshold:(fun () -> t.dupack_threshold)
          ~on_dsack ~on_first_congestion ())
  in
  Flow.complete_if_empty t.flow;
  Tcp_tx.connect scatter;
  t

let flow t = t.flow
let phase t = t.phase
let switched_at t = t.switched_at
let scatter_tx t = Flow.tx t.flow

let multipath_txs t =
  let txs = Flow.txs t.flow in
  Array.sub txs 1 (Array.length txs - 1)

let spurious_rtx_signals t =
  (Tcp_tx.stats (scatter_tx t)).Tcp_tx.dsacks_received

let current_dupack_threshold t = t.dupack_threshold

let total_cwnd t =
  Array.fold_left (fun acc tx -> acc +. Tcp_tx.cwnd tx) 0. (Flow.txs t.flow)

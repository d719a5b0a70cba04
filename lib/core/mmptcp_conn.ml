module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Host = Sim_net.Host
module Packet = Sim_net.Packet
module Tcp_tx = Sim_tcp.Tcp_tx
module Tcp_rx = Sim_tcp.Tcp_rx
module Dataplane = Sim_mptcp.Dataplane
module Cong = Sim_tcp.Cong

type phase = Packet_scatter | Multipath

type t = {
  conn : int;
  size : int;
  strategy : Strategy.t;
  splan : Strategy.switch_plan;
  params : Sim_tcp.Tcp_params.t;
  plane : Dataplane.t;
  sched : Scheduler.t;
  src : Host.t;
  dst : Host.t;
  rng : Rng.t;
  mutable phase : phase;
  mutable ps_tx : Tcp_tx.t option;
  mutable mp_txs : Tcp_tx.t array;
  rxs : Tcp_rx.t array;  (* index 0 = scatter, 1..subflows = multipath *)
  started_at : Time.t;
  mutable switched_at : Time.t option;
  group : Cong.Lia.group;
  mutable switch_timer : Scheduler.Timer.t option;  (* After_time deadline *)
  mutable dupack_threshold : int;
  dupack_cap : int;
  on_switch : t -> unit;
}

let scatter_tx t =
  match t.ps_tx with Some tx -> tx | None -> assert false

(* Phase switching: open the MPTCP subflows and starve the scatter
   flow of new data. Idempotent; a no-op once the transfer is complete
   (an After_time deadline can outlive a fast flow). *)
let rec trigger_switch t =
  if t.phase = Packet_scatter && not (Dataplane.is_complete t.plane) then begin
    t.phase <- Multipath;
    t.switched_at <- Some (Scheduler.now t.sched);
    Sim_obs.Flow_ledger.on_phase_switch
      (Sim_engine.Sim_ctx.ledger (Scheduler.ctx t.sched))
      ~conn:t.conn;
    Sim_obs.Metrics.emit
      (Sim_engine.Sim_ctx.metrics (Scheduler.ctx t.sched))
      ~kind:"phase_switch" ~conn:t.conn
      ~info:
        [
          ("to", "multipath");
          ("subflows", string_of_int t.strategy.Strategy.subflows);
          ("assigned", string_of_int (Dataplane.assigned t.plane));
        ]
      ();
    (match t.switch_timer with
    | Some tm -> Scheduler.Timer.cancel tm
    | None -> ());
    let mp_source =
      {
        Tcp_tx.pull = (fun ~max -> Dataplane.pull t.plane ~max);
        has_more = (fun () -> Dataplane.unassigned t.plane);
      }
    in
    t.mp_txs <-
      Array.init t.strategy.Strategy.subflows (fun j ->
          let i = j + 1 in
          let src_port = 30_000 + (t.conn * 131) + (i * 7) in
          Tcp_tx.create ~host:t.src ~peer:(Host.addr t.dst) ~conn:t.conn
            ~subflow:i ~params:t.params
            ~src_port:(fun () -> src_port)
            ~dst_port:5001 ~source:mp_source ~cc:(Cong.Lia t.group) ());
    Array.iter Tcp_tx.connect t.mp_txs;
    t.on_switch t
  end

and ps_source t =
  {
    Tcp_tx.pull =
      (fun ~max ->
        match t.phase with
        | Multipath -> None
        | Packet_scatter -> (
          match t.splan.Strategy.switch_after_bytes with
          | Some v when Dataplane.assigned t.plane >= v ->
            trigger_switch t;
            None
          | Some _ | None -> Dataplane.pull t.plane ~max));
    has_more =
      (fun () ->
        t.phase = Packet_scatter
        &&
        match t.splan.Strategy.switch_after_bytes with
        | Some v ->
          Dataplane.assigned t.plane < v && Dataplane.unassigned t.plane
        | None -> Dataplane.unassigned t.plane);
  }

let initial_threshold strategy ~paths =
  match strategy with
  | Strategy.Static k -> max 1 k
  | Strategy.Topology_aware -> max 3 paths
  | Strategy.Adaptive { initial; _ } -> max 1 initial

let start ~src ~dst ~size ~rng ?(strategy = Strategy.default)
    ?(params = Sim_tcp.Tcp_params.default) ?(paths = 1)
    ?(on_complete = fun _ -> ()) ?(on_switch = fun _ -> ())
    ?(on_close = fun _ -> ()) () =
  let sched = Host.sched src in
  let conn = Sim_tcp.Conn_id.fresh (Scheduler.ctx sched) in
  let subflows = strategy.Strategy.subflows in
  if subflows < 1 then invalid_arg "Mmptcp_conn.start: subflows must be >= 1";
  let dupack_cap =
    match strategy.Strategy.dupack with
    | Strategy.Adaptive { cap; _ } -> cap
    | Strategy.Static k -> max 1 k
    | Strategy.Topology_aware -> max 3 paths
  in
  let splan = Strategy.plan strategy.Strategy.switch in
  let rec t =
    lazy
      {
        conn;
        size;
        strategy;
        splan;
        params;
        plane =
          Dataplane.create ~sched ~size ~on_complete:(fun () ->
              let t = Lazy.force t in
              (* A still-armed After_time deadline must not outlive the
                 transfer: cancel releases the timer's wheel slot. *)
              (match t.switch_timer with
              | Some tm -> Scheduler.Timer.cancel tm
              | None -> ());
              Sim_obs.Flow_ledger.on_complete
                (Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched))
                ~conn;
              on_complete t);
        sched;
        src;
        dst;
        rng;
        phase = Packet_scatter;
        ps_tx = None;
        mp_txs = [||];
        rxs =
          Array.init (subflows + 1) (fun i ->
              Tcp_rx.create ~params ~host:dst ~peer:(Host.addr src) ~conn
                ~subflow:i
                ~on_data:(fun ~dsn ~len ->
                  Dataplane.deliver (Lazy.force t).plane ~dsn ~len)
                ());
        started_at = Scheduler.now sched;
        switched_at = None;
        group = Cong.Lia.make_group ();
        switch_timer = None;
        dupack_threshold = initial_threshold strategy.Strategy.dupack ~paths;
        dupack_cap;
        on_switch;
      }
  in
  let t = Lazy.force t in
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
         float_of_int
           ((match t.ps_tx with Some _ -> 1 | None -> 0)
           + Array.length t.mp_txs));
     reg "dupack_threshold" "acks" (fun () ->
         float_of_int t.dupack_threshold);
     reg "bytes_received" "bytes" (fun () ->
         float_of_int (Dataplane.received_bytes t.plane))
   end);
  (* Per-packet source-port randomisation: this is what makes ECMP
     scatter the flow, and it applies to retransmissions too — a
     retransmitted packet takes a fresh random path. *)
  let scatter_port () = 1024 + Rng.int t.rng 60_000 in
  let on_first_congestion () =
    if t.splan.Strategy.switch_on_congestion then trigger_switch t
  in
  let on_dsack () =
    match t.strategy.Strategy.dupack with
    | Strategy.Adaptive _ ->
      if t.dupack_threshold < t.dupack_cap then
        t.dupack_threshold <- t.dupack_threshold + 1
    | Strategy.Static _ | Strategy.Topology_aware -> ()
  in
  let ps_tx =
    Tcp_tx.create ~host:src ~peer:(Host.addr dst) ~conn ~subflow:0 ~params
      ~src_port:scatter_port ~dst_port:5001 ~source:(ps_source t)
      ~cc:Cong.Reno
      ~dupack_threshold:(fun () -> t.dupack_threshold)
      ~on_dsack ~on_first_congestion ()
  in
  t.ps_tx <- Some ps_tx;
  Host.bind_conn ~src ~dst ~conn
    ~tx:(fun pkt ->
      let i = pkt.Packet.subflow in
      if i = 0 then Tcp_tx.handle ps_tx pkt
      else if i >= 1 && i <= Array.length t.mp_txs then
        Tcp_tx.handle t.mp_txs.(i - 1) pkt)
    ~rx:(fun pkt ->
      let i = pkt.Packet.subflow in
      if i >= 0 && i < Array.length t.rxs then Tcp_rx.handle t.rxs.(i) pkt)
    ~timers_pending:(fun () ->
      Tcp_tx.rto_pending ps_tx
      || Array.exists Tcp_tx.rto_pending t.mp_txs
      || Array.exists Tcp_rx.delack_pending t.rxs
      ||
      match t.switch_timer with
      | Some tm -> Scheduler.Timer.is_pending tm
      | None -> false)
    ~on_close:(fun () -> on_close t);
  if size = 0 then Dataplane.deliver t.plane ~dsn:0 ~len:0;
  (match splan.Strategy.switch_after_time with
  | Some deadline ->
    let tm = Scheduler.Timer.create sched trigger_switch t in
    t.switch_timer <- Some tm;
    Scheduler.Timer.schedule_after tm deadline
  | None -> ());
  Tcp_tx.connect ps_tx;
  t

let conn t = t.conn
let size t = t.size
let phase t = t.phase
let started_at t = t.started_at
let completed_at t = Dataplane.completed_at t.plane
let switched_at t = t.switched_at

let fct t =
  match completed_at t with
  | None -> None
  | Some c -> Some (Time.diff c t.started_at)

let is_complete t = Dataplane.is_complete t.plane
let bytes_received t = Dataplane.received_bytes t.plane

let all_txs t =
  match t.ps_tx with
  | None -> Array.to_list t.mp_txs
  | Some tx -> tx :: Array.to_list t.mp_txs

let sum_stats t f =
  List.fold_left (fun acc tx -> acc + f (Tcp_tx.stats tx)) 0 (all_txs t)

let rto_events t = sum_stats t (fun s -> s.Tcp_tx.rto_events)
let fast_rtx_events t = sum_stats t (fun s -> s.Tcp_tx.fast_rtx_events)

let spurious_rtx_signals t =
  (Tcp_tx.stats (scatter_tx t)).Tcp_tx.dsacks_received

let multipath_txs t = t.mp_txs
let current_dupack_threshold t = t.dupack_threshold

let total_cwnd t =
  List.fold_left (fun acc tx -> acc +. Tcp_tx.cwnd tx) 0. (all_txs t)

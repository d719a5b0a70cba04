module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Host = Sim_net.Host
module Packet = Sim_net.Packet
module Tcp_tx = Sim_tcp.Tcp_tx
module Tcp_rx = Sim_tcp.Tcp_rx
module Cong = Sim_tcp.Cong

type t = {
  conn : int;
  size : int;
  subflows : int;
  plane : Dataplane.t;
  mutable txs : Tcp_tx.t array;
  mutable rxs : Tcp_rx.t array;
  started_at : Time.t;
  group : Cong.Lia.group option;
}

let start ~src ~dst ~size ~subflows ?(params = Sim_tcp.Tcp_params.default)
    ?(coupled = true) ?(on_complete = fun _ -> ()) ?(on_close = fun _ -> ())
    () =
  if subflows < 1 then invalid_arg "Mptcp_conn.start: subflows must be >= 1";
  let sched = Host.sched src in
  let conn = Sim_tcp.Conn_id.fresh (Scheduler.ctx sched) in
  let group = if coupled then Some (Cong.Lia.make_group ()) else None in
  let rec t =
    lazy
      {
        conn;
        size;
        subflows;
        plane =
          Dataplane.create ~sched ~size ~on_complete:(fun () ->
              Sim_obs.Flow_ledger.on_complete
                (Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched))
                ~conn;
              on_complete (Lazy.force t));
        txs = [||];
        rxs = [||];
        started_at = Scheduler.now sched;
        group;
      }
  in
  let t = Lazy.force t in
  (let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched) in
   if Sim_obs.Metrics.want_conn m conn then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"mptcp"
         ~id:(Printf.sprintf "c%d" conn)
         ~name ~units read
     in
     reg "subflows_active" "subflows" (fun () ->
         float_of_int (Array.length t.txs));
     reg "bytes_received" "bytes" (fun () ->
         float_of_int (Dataplane.received_bytes t.plane))
   end);
  let source =
    {
      Tcp_tx.pull = (fun ~max -> Dataplane.pull t.plane ~max);
      has_more = (fun () -> Dataplane.unassigned t.plane);
    }
  in
  let cc = match group with Some g -> Cong.Lia g | None -> Cong.Reno in
  let make_subflow i =
    let src_port = 10_000 + (conn * 131) + (i * 7) in
    let tx =
      Tcp_tx.create ~host:src ~peer:(Host.addr dst) ~conn ~subflow:i ~params
        ~src_port:(fun () -> src_port)
        ~dst_port:5001 ~source ~cc ()
    in
    let rx =
      Tcp_rx.create ~params ~host:dst ~peer:(Host.addr src) ~conn ~subflow:i
        ~on_data:(fun ~dsn ~len -> Dataplane.deliver t.plane ~dsn ~len)
        ()
    in
    (tx, rx)
  in
  let pairs = Array.init subflows make_subflow in
  t.txs <- Array.map fst pairs;
  t.rxs <- Array.map snd pairs;
  Host.bind_conn ~src ~dst ~conn
    ~tx:(fun pkt ->
      let i = pkt.Packet.subflow in
      if i >= 0 && i < subflows then Tcp_tx.handle t.txs.(i) pkt)
    ~rx:(fun pkt ->
      let i = pkt.Packet.subflow in
      if i >= 0 && i < subflows then Tcp_rx.handle t.rxs.(i) pkt)
    ~timers_pending:(fun () ->
      Array.exists Tcp_tx.rto_pending t.txs
      || Array.exists Tcp_rx.delack_pending t.rxs)
    ~on_close:(fun () -> on_close t);
  if size = 0 then Dataplane.deliver t.plane ~dsn:0 ~len:0;
  Array.iter Tcp_tx.connect t.txs;
  t

let conn t = t.conn
let size t = t.size
let subflow_count t = t.subflows
let started_at t = t.started_at
let completed_at t = Dataplane.completed_at t.plane

let fct t =
  match completed_at t with
  | None -> None
  | Some c -> Some (Time.diff c t.started_at)

let is_complete t = Dataplane.is_complete t.plane
let bytes_received t = Dataplane.received_bytes t.plane

let sum_stats t f =
  Array.fold_left (fun acc tx -> acc + f (Tcp_tx.stats tx)) 0 t.txs

let rto_events t = sum_stats t (fun s -> s.Tcp_tx.rto_events)
let fast_rtx_events t = sum_stats t (fun s -> s.Tcp_tx.fast_rtx_events)
let lia_alpha t = Option.map Cong.Lia.alpha t.group

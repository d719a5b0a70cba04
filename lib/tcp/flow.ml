module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Host = Sim_net.Host
module Packet = Sim_net.Packet

type t = {
  conn : int;
  src : Host.t;
  dst : Host.t;
  params : Tcp_params.t;
  plane : Dataplane.t;
  pull : Tcp_tx.source;  (* [Dataplane.pull plane], shared by subflows *)
  group : Cong.Lia.group option;  (* [Some] when coupled *)
  mutable txs : Tcp_tx.t array;  (* by subflow id *)
  mutable rxs : Tcp_rx.t array;
  started_at : Time.t;
  mutable completed_at : Time.t option;
  on_complete : t -> unit;
}

let create ~src ~dst ~size ~params ~coupled ~on_complete ~on_close =
  if size < 0 then invalid_arg "Flow.create: negative size";
  let sched = Host.sched src in
  let conn = Conn_id.fresh (Scheduler.ctx sched) in
  let plane = Dataplane.create ~size in
  let t =
    {
      conn;
      src;
      dst;
      params;
      plane;
      pull = Dataplane.pull plane;
      group = (if coupled then Some (Cong.Lia.make_group ()) else None);
      txs = [||];
      rxs = [||];
      started_at = Scheduler.now sched;
      completed_at = None;
      on_complete;
    }
  in
  Host.bind_conn ~src ~dst ~conn
    ~tx:(fun pkt ->
      let i = pkt.Packet.subflow in
      if i >= 0 && i < Array.length t.txs then Tcp_tx.handle t.txs.(i) pkt)
    ~rx:(fun pkt ->
      let i = pkt.Packet.subflow in
      if i >= 0 && i < Array.length t.rxs then Tcp_rx.handle t.rxs.(i) pkt)
    ~timers_pending:(fun () -> Array.exists Tcp_tx.rto_pending t.txs)
    ~on_close:(fun () -> on_close t);
  t

(* The receiver holds all [size] bytes: stamp, record, report. *)
let complete t =
  let sched = Host.sched t.src in
  t.completed_at <- Some (Scheduler.now sched);
  Sim_obs.Flow_ledger.on_complete
    (Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched))
    ~conn:t.conn;
  t.on_complete t

let add_sender t make =
  let i = Array.length t.txs in
  let tx = make i in
  let rx =
    Tcp_rx.create ~host:t.dst ~peer:(Host.addr t.src) ~conn:t.conn ~subflow:i
      ~on_data:(fun len -> if Dataplane.deliver t.plane len then complete t)
      ()
  in
  t.txs <- Array.append t.txs [| tx |];
  t.rxs <- Array.append t.rxs [| rx |];
  tx

let sender t ~port i =
  let cc = match t.group with Some g -> Cong.Lia g | None -> Cong.Reno in
  Tcp_tx.create ~host:t.src ~peer:(Host.addr t.dst) ~conn:t.conn ~subflow:i
    ~params:t.params
    ~src_port:(fun () -> port)
    ~dst_port:5001 ~source:t.pull ~cc ()

let add_subflow t ~port = add_sender t (sender t ~port)

(* A zero-byte transfer has nothing to wait for. *)
let complete_if_empty t = if Dataplane.size t.plane = 0 then complete t

let start ~src ~dst ~size ?(params = Tcp_params.default)
    ?(on_complete = fun _ -> ()) ?(on_close = fun _ -> ()) () =
  let t =
    create ~src ~dst ~size ~params ~coupled:false ~on_complete ~on_close
  in
  let tx = add_sender t (sender t ~port:(10_000 + t.conn)) in
  complete_if_empty t;
  Tcp_tx.connect tx;
  t

let start_mptcp ~src ~dst ~size ~subflows ?(params = Tcp_params.default)
    ?(coupled = true) ?(on_complete = fun _ -> ()) ?(on_close = fun _ -> ())
    () =
  if subflows < 1 then invalid_arg "Flow.start_mptcp: subflows must be >= 1";
  let t = create ~src ~dst ~size ~params ~coupled ~on_complete ~on_close in
  (let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx (Host.sched src)) in
   if Sim_obs.Metrics.want_conn m t.conn then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"mptcp"
         ~id:(Printf.sprintf "c%d" t.conn)
         ~name ~units read
     in
     reg "subflows_active" "subflows" (fun () ->
         float_of_int (Array.length t.txs));
     reg "bytes_received" "bytes" (fun () ->
         float_of_int (Dataplane.received_bytes t.plane))
   end);
  for i = 0 to subflows - 1 do
    ignore (add_subflow t ~port:(10_000 + (t.conn * 131) + (i * 7)))
  done;
  complete_if_empty t;
  Array.iter Tcp_tx.connect t.txs;
  t

let conn t = t.conn
let plane t = t.plane
let completed_at t = t.completed_at

let fct t =
  match completed_at t with
  | None -> None
  | Some c -> Some (Time.diff c t.started_at)

let is_complete t = t.completed_at <> None
let bytes_received t = Dataplane.received_bytes t.plane
let subflow_count t = Array.length t.txs
let txs t = t.txs
let tx t = t.txs.(0)

let sum_stats t f =
  Array.fold_left (fun acc tx -> acc + f (Tcp_tx.stats tx)) 0 t.txs

let rto_events t = sum_stats t (fun s -> s.Tcp_tx.rto_events)
let lia_alpha t = Option.map Cong.Lia.alpha t.group

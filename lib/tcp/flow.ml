module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Host = Sim_net.Host

type t = {
  conn : int;
  size : int;
  mutable tx : Tcp_tx.t option;
  mutable rx : Tcp_rx.t option;
  started_at : Time.t;
  mutable completed_at : Time.t option;
  received : Intervals.t;
}

let start ~src ~dst ~size ?(params = Tcp_params.default)
    ?dupack_threshold ?src_port ?dst_port ?(on_complete = fun _ -> ())
    ?(on_close = fun _ -> ()) () =
  if size < 0 then invalid_arg "Flow.start: negative size";
  let sched = Host.sched src in
  let conn = Conn_id.fresh (Scheduler.ctx sched) in
  let t =
    {
      conn;
      size;
      tx = None;
      rx = None;
      started_at = Scheduler.now sched;
      completed_at = None;
      received = Intervals.create ();
    }
  in
  let src_port = match src_port with Some p -> p | None -> 10_000 + conn in
  let dst_port = match dst_port with Some p -> p | None -> 5001 in
  let on_data ~dsn ~len =
    if dsn >= 0 && t.completed_at = None then begin
      ignore (Intervals.add t.received ~start:dsn ~stop:(dsn + len));
      if Intervals.total t.received >= size then begin
        t.completed_at <- Some (Scheduler.now sched);
        Sim_obs.Flow_ledger.on_complete
          (Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched))
          ~conn;
        on_complete t
      end
    end
  in
  let rx =
    Tcp_rx.create ~params ~host:dst ~peer:(Host.addr src) ~conn ~subflow:0
      ~on_data ()
  in
  let tx =
    Tcp_tx.create ~host:src ~peer:(Host.addr dst) ~conn ~subflow:0 ~params
      ~src_port:(fun () -> src_port)
      ~dst_port
      ~source:(Tcp_tx.fixed_size_source size)
      ~cc:Cong.Reno ?dupack_threshold ()
  in
  t.tx <- Some tx;
  t.rx <- Some rx;
  Host.bind_conn ~src ~dst ~conn ~tx:(Tcp_tx.handle tx) ~rx:(Tcp_rx.handle rx)
    ~timers_pending:(fun () -> Tcp_tx.rto_pending tx || Tcp_rx.delack_pending rx)
    ~on_close:(fun () -> on_close t);
  (* A zero-byte flow completes at establishment; treat it as complete
     immediately for simplicity. *)
  if size = 0 then begin
    t.completed_at <- Some (Scheduler.now sched);
    Sim_obs.Flow_ledger.on_complete
      (Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched))
      ~conn;
    on_complete t
  end;
  Tcp_tx.connect tx;
  t

let conn t = t.conn
let size t = t.size
let started_at t = t.started_at
let completed_at t = t.completed_at

let fct t =
  match t.completed_at with
  | None -> None
  | Some c -> Some (Time.diff c t.started_at)

let is_complete t = t.completed_at <> None
let bytes_received t = Intervals.total t.received

let get_tx t = match t.tx with Some x -> x | None -> assert false
let get_rx t = match t.rx with Some x -> x | None -> assert false
let tx = get_tx
let rx = get_rx
let rto_events t = (Tcp_tx.stats (get_tx t)).Tcp_tx.rto_events

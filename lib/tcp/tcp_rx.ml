module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Addr = Sim_net.Addr

type t = {
  host : Host.t;
  peer : Addr.t;
  conn : int;
  subflow : int;
  params : Tcp_params.t;
  received : Intervals.t;
  mutable rcv_nxt : int;
  on_data : dsn:int -> len:int -> unit;
  mutable acks_sent : int;
  mutable dup_segments : int;
  (* Delayed-ACK state. *)
  mutable pending : int;  (* in-order segments not yet acknowledged *)
  (* Source and destination ports of our ACKs, -1 until the first
     SYN or data segment names them. *)
  mutable reply_src_port : int;
  mutable reply_dst_port : int;
  (* Re-armable delayed-ACK timer, allocated on first arm and reused. *)
  mutable delack_timer : Scheduler.Timer.t option;
}

let create ?(params = Tcp_params.default) ~host ~peer ~conn ~subflow ~on_data () =
  {
    host;
    peer;
    conn;
    subflow;
    params;
    received = Intervals.create ();
    rcv_nxt = 0;
    on_data;
    acks_sent = 0;
    dup_segments = 0;
    pending = 0;
    reply_src_port = -1;
    reply_dst_port = -1;
    delack_timer = None;
  }

let cancel_delack t =
  match t.delack_timer with
  | Some tm -> Scheduler.Timer.cancel tm
  | None -> ()

let delack_pending t =
  match t.delack_timer with
  | Some tm -> Scheduler.Timer.is_pending tm
  | None -> false

let emit_ack t ~src_port ~dst_port ~bits =
  t.acks_sent <- t.acks_sent + 1;
  let pkt =
    Packet.make
      ~ctx:(Scheduler.ctx (Host.sched t.host))
      ~src:(Host.addr t.host) ~dst:t.peer ~conn:t.conn ~subflow:t.subflow
      ~src_port ~dst_port ~seq:0 ~ack_seq:t.rcv_nxt ~len:0 ~bits ~dsn:(-1)
  in
  (* Up to three SACK blocks: the out-of-order spans above the
     cumulative acknowledgement, in ascending order, written straight
     into the packet's scratch array (nothing allocated here). *)
  pkt.Packet.sack_count <-
    Intervals.fill_above t.received ~above:t.rcv_nxt
      ~max_blocks:Packet.max_sack_blocks ~dst:pkt.Packet.sack;
  Host.send t.host pkt

let flush_ack t ~dup_seen =
  if t.reply_src_port >= 0 then begin
    cancel_delack t;
    t.pending <- 0;
    emit_ack t ~src_port:t.reply_src_port ~dst_port:t.reply_dst_port
      ~bits:(Packet.ack_bits ~dup_seen)
  end

let note_reply_ports t pkt =
  t.reply_src_port <- pkt.Packet.dst_port;
  t.reply_dst_port <- pkt.Packet.src_port

let on_delack_timeout t =
  if t.pending > 0 then flush_ack t ~dup_seen:false

let arm_delack t =
  let tm =
    match t.delack_timer with
    | Some tm -> tm
    | None ->
      let tm = Scheduler.Timer.create (Host.sched t.host) on_delack_timeout t in
      t.delack_timer <- Some tm;
      tm
  in
  Scheduler.Timer.schedule_after tm t.params.Tcp_params.delack_timeout

let handle t pkt =
  if Packet.syn pkt && not (Packet.ack pkt) then begin
    (* Passive open (or duplicate SYN): always answer. *)
    note_reply_ports t pkt;
    emit_ack t ~src_port:pkt.Packet.dst_port ~dst_port:pkt.Packet.src_port
      ~bits:Packet.syn_ack_bits
  end
  else if pkt.Packet.len > 0 then begin
    let start = pkt.Packet.seq in
    let stop = start + pkt.Packet.len in
    let before = t.rcv_nxt in
    let added = Intervals.add t.received ~start ~stop in
    t.rcv_nxt <- Intervals.contiguous_from t.received 0;
    let dup = added = 0 in
    if dup then t.dup_segments <- t.dup_segments + 1;
    t.on_data ~dsn:pkt.Packet.dsn ~len:pkt.Packet.len;
    note_reply_ports t pkt;
    let in_order_advance = (not dup) && t.rcv_nxt > before in
    if in_order_advance && Intervals.span_count t.received = 1 then begin
      (* Clean in-order progress: eligible for coalescing. *)
      t.pending <- t.pending + 1;
      if t.pending >= t.params.Tcp_params.delayed_ack then
        flush_ack t ~dup_seen:false
      else if not (delack_pending t) then arm_delack t
    end
    else begin
      (* Out-of-order, duplicate, or hole-filling arrival: acknowledge
         immediately (duplicate-ACK generation must not be delayed). *)
      t.pending <- t.pending + 1;
      flush_ack t ~dup_seen:dup
    end
  end

let rcv_nxt t = t.rcv_nxt
let acks_sent t = t.acks_sent
let dup_segments t = t.dup_segments
let reorder_spans t = Intervals.span_count t.received

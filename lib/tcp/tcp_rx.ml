module Scheduler = Sim_engine.Scheduler
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Addr = Sim_net.Addr

type t = {
  host : Host.t;
  peer : Addr.t;
  conn : int;
  subflow : int;
  received : Intervals.t;
  mutable rcv_nxt : int;
  on_data : dsn:int -> len:int -> unit;
  mutable dup_segments : int;
}

let create ~host ~peer ~conn ~subflow ~on_data () =
  {
    host;
    peer;
    conn;
    subflow;
    received = Intervals.create ();
    rcv_nxt = 0;
    on_data;
    dup_segments = 0;
  }

(* The reply to [pkt], on its ports swapped: a sender that varies its
   source port per segment (MMPTCP's packet scatter) gets each ACK on
   the path of the segment it answers. *)
let reply t pkt ~bits =
  let ack =
    Packet.make
      ~ctx:(Scheduler.ctx (Host.sched t.host))
      ~src:(Host.addr t.host) ~dst:t.peer ~conn:t.conn ~subflow:t.subflow
      ~src_port:pkt.Packet.dst_port ~dst_port:pkt.Packet.src_port ~seq:0
      ~ack_seq:t.rcv_nxt ~len:0 ~bits ~dsn:(-1)
  in
  (* Up to three SACK blocks: the out-of-order spans above the
     cumulative acknowledgement, in ascending order, written straight
     into the packet's scratch array (nothing allocated here). *)
  ack.Packet.sack_count <-
    Intervals.fill_above t.received ~above:t.rcv_nxt
      ~max_blocks:Packet.max_sack_blocks ~dst:ack.Packet.sack;
  Host.send t.host ack

let handle t pkt =
  if Packet.syn pkt && not (Packet.ack pkt) then
    (* Passive open (or duplicate SYN): always answer. *)
    reply t pkt ~bits:Packet.syn_ack_bits
  else if pkt.Packet.len > 0 then begin
    let start = pkt.Packet.seq and len = pkt.Packet.len in
    let added = Intervals.add t.received ~start ~stop:(start + len) in
    (* Dev-profile invariant: an arrival is wholly new or wholly a
       duplicate, which the data level's byte count relies on. *)
    if Sim_engine.Sanitizer_mode.on && added <> 0 && added <> len then
      failwith
        (Printf.sprintf
           "Tcp_rx: conn %d subflow %d: segment [%d, %d) is %d bytes new"
           t.conn t.subflow start (start + len) added);
    t.rcv_nxt <- Intervals.contiguous_from t.received 0;
    let dup = added = 0 in
    if dup then t.dup_segments <- t.dup_segments + 1
    else t.on_data ~dsn:pkt.Packet.dsn ~len;
    reply t pkt ~bits:(Packet.ack_bits ~dup_seen:dup)
  end

let rcv_nxt t = t.rcv_nxt
let dup_segments t = t.dup_segments
let reorder_spans t = Intervals.span_count t.received

module Scheduler = Sim_engine.Scheduler
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Addr = Sim_net.Addr

type t = {
  host : Host.t;
  peer : Addr.t;
  conn : int;
  subflow : int;
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;
      (* [start, stop) spans received above [rcv_nxt]: sorted, disjoint
         and non-adjacent, so the first one starts past [rcv_nxt] *)
  on_data : int -> unit;
}

let create ~host ~peer ~conn ~subflow ~on_data () =
  { host; peer; conn; subflow; rcv_nxt = 0; ooo = []; on_data }

(* Bytes of [s, e) that [spans] cover. *)
let rec overlap s e = function
  | (a, b) :: rest when a < e ->
    Int.max 0 (Int.min e b - Int.max s a) + overlap s e rest
  | _ -> 0

(* [spans] with [s, e) merged in. *)
let rec insert s e = function
  | (a, b) :: rest when b < s -> (a, b) :: insert s e rest
  | (a, b) :: rest when a <= e -> insert (Int.min s a) (Int.max e b) rest
  | spans -> (s, e) :: spans

(* Moves [rcv_nxt] over the spans it now reaches. *)
let rec advance t =
  match t.ooo with
  | (a, b) :: rest when a <= t.rcv_nxt ->
    t.rcv_nxt <- Int.max t.rcv_nxt b;
    t.ooo <- rest;
    advance t
  | _ -> ()

(* Writes the first spans, up to [Packet.max_sack_blocks], into [dst]
   from block [i] on; returns the block count. *)
let rec fill dst i = function
  | (a, b) :: rest when i < Packet.max_sack_blocks ->
    dst.(2 * i) <- a;
    dst.((2 * i) + 1) <- b;
    fill dst (i + 1) rest
  | _ -> i

(* The normal form [ooo] keeps: each span non-empty and starting past
   the end of what precedes it, [rcv_nxt] first. *)
let rec normal (above : int) = function
  | (a, b) :: rest -> above < a && a < b && normal b rest
  | [] -> true

(* The reply to [pkt], on its ports swapped: a sender that varies its
   source port per segment (MMPTCP's packet scatter) gets each ACK on
   the path of the segment it answers. *)
let reply t pkt ~bits =
  let ack =
    Packet.make
      ~ctx:(Scheduler.ctx (Host.sched t.host))
      ~src:(Host.addr t.host) ~dst:t.peer ~conn:t.conn ~subflow:t.subflow
      ~src_port:pkt.Packet.dst_port ~dst_port:pkt.Packet.src_port ~seq:0
      ~ack_seq:t.rcv_nxt ~len:0 ~bits
  in
  (* SACK blocks: the lowest out-of-order spans, in ascending order,
     written straight into the packet's scratch array. *)
  ack.Packet.sack_count <- fill ack.Packet.sack 0 t.ooo;
  Host.send t.host ack

let handle t pkt =
  if Packet.syn pkt && not (Packet.ack pkt) then
    (* Passive open (or duplicate SYN): always answer. *)
    reply t pkt ~bits:Packet.syn_ack_bits
  else if pkt.Packet.len > 0 then begin
    let start = pkt.Packet.seq and len = pkt.Packet.len in
    let stop = start + len in
    let added =
      len - Int.max 0 (Int.min stop t.rcv_nxt - start) - overlap start stop t.ooo
    in
    (* Dev-profile invariant: an arrival is wholly new or wholly a
       duplicate, which the data level's byte count relies on. *)
    if Sim_engine.Sanitizer_mode.on && added <> 0 && added <> len then
      failwith
        (Printf.sprintf
           "Tcp_rx: conn %d subflow %d: segment [%d, %d) is %d bytes new"
           t.conn t.subflow start stop added);
    let dup = added = 0 in
    if not dup then begin
      if start <= t.rcv_nxt then begin
        t.rcv_nxt <- stop;
        advance t
      end
      else t.ooo <- insert start stop t.ooo;
      t.on_data len
    end;
    if Sim_engine.Sanitizer_mode.on && not (normal t.rcv_nxt t.ooo) then
      failwith
        (Printf.sprintf
           "Tcp_rx: conn %d subflow %d: out-of-order spans not in normal \
            form above %d"
           t.conn t.subflow t.rcv_nxt);
    reply t pkt ~bits:(Packet.ack_bits ~dup_seen:dup)
  end

let rcv_nxt t = t.rcv_nxt

(* Reference model for the link property in test_net.ml: the
   two-event link that [Sim_net.Link] replaced. Every hop fires a
   tx-done event when serialisation ends; that event draws the
   jitter, arms the packet's rx event and starts the next packet. The
   one-event link arms the rx when serialisation starts and a tx-done
   only while a packet waits, so on a lone link it must give the same
   deliveries, drops, stats and tap calls at the same instants. Keep
   this file as it is: it is the behaviour being preserved, not code
   to optimise. *)

module Packet = Sim_net.Packet
module Pktqueue = Sim_net.Pktqueue
module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable busy_ns : int;
}

type t = {
  sched : Scheduler.t;
  rate_bps : float;
  delay : Time.t;
  jitter : Time.t;
  jitter_rng : Sim_engine.Rng.t;
  queue : Pktqueue.t;
  id : int;
  mutable deliver : (Packet.t -> unit) option;
  mutable peer : int;
  mutable taps : (Packet.t -> unit) list;
  mutable busy : bool;
  mutable last_delivery : Time.t;
  (* Typed event pools carrying the in-flight Packet.t (D007/§4j:
     scheduling moves ownership into the pending event; the fire
     function receives it back). [tx_pool] holds the one packet being
     serialised; [rx_pool] one cell per packet propagating on the
     wire. Option-wrapped only because each pool's fire function needs
     [t]: both are installed in [create], immediately after the record
     exists, and never change. *)
  mutable tx_pool : Packet.t Scheduler.Event.pool option;
  mutable rx_pool : Packet.t Scheduler.Event.pool option;
  (* Capacity claimed by a coexisting fluid allocation (hybrid model):
     packet serialisation slows to the residual rate. 0 outside hybrid
     runs, in which case tx_time is bit-identical to the historic
     computation. *)
  mutable reserved_bps : float;
  st : stats;
}

let attach ?(peer = min_int) t f =
  t.deliver <- Some f;
  t.peer <- peer
let add_tap t f = t.taps <- f :: t.taps

(* Packet traffic never starves entirely: the effective rate floors at
   5% of nominal even when the fluid side claims the whole link, so a
   hybrid run's packet phase always makes progress. *)
let[@inline] effective_rate t =
  if t.reserved_bps <= 0. then t.rate_bps
  else Float.max (t.rate_bps -. t.reserved_bps) (0.05 *. t.rate_bps)

let tx_time t ~bytes =
  Time.of_ns
    (int_of_float (float_of_int (bytes * 8) /. effective_rate t *. 1e9))

(* A recursive walk rather than [List.iter] with a closure over [pkt]:
   this runs on every hop. *)
let rec run_taps pkt = function
  | [] -> ()
  | tap :: rest ->
    tap pkt;
    run_taps pkt rest

let the_pool = function Some p -> p | None -> assert false

(* Receiver-side fire: a packet has propagated across the wire. *)
let deliver_pkt t pkt =
  match t.deliver with
  | Some f -> f pkt
  | None ->
    (* Unreachable: [send] refuses traffic until [attach]. *)
    failwith "Link.send: no receiver attached"

(* Transmitter-side fire: serialisation done, the packet enters the
   wire and the transmitter is free for the next one. Propagation gets
   a small random jitter (switch pipelines and NICs are not perfectly
   deterministic; without this, exact ACK-clocking produces drop-tail
   lockout artifacts), clamped so the link stays FIFO. *)
let rec tx_done t pkt =
  let extra =
    if Time.is_zero t.jitter then Time.zero
    else Time.of_ns (int_of_float
           (Sim_engine.Rng.float t.jitter_rng
              (float_of_int (Time.to_ns t.jitter))))
  in
  let target = Time.add (Time.add (Scheduler.now t.sched) t.delay) extra in
  let when_ = Time.max target t.last_delivery in
  t.last_delivery <- when_;
  Scheduler.Event.schedule_at (the_pool t.rx_pool) when_ pkt;
  pump t

and pump t =
  if Pktqueue.is_empty t.queue then t.busy <- false
  else begin
    let pkt = Pktqueue.take t.queue in
    t.busy <- true;
    let tx = tx_time t ~bytes:pkt.Packet.size in
    t.st.tx_packets <- t.st.tx_packets + 1;
    t.st.tx_bytes <- t.st.tx_bytes + pkt.Packet.size;
    t.st.busy_ns <- t.st.busy_ns + Time.to_ns tx;
    run_taps pkt t.taps;
    Scheduler.Event.schedule_after (the_pool t.tx_pool) tx pkt
  end

let create ?(jitter = Time.of_us 5.) ~sched ~rate_bps ~delay ~queue ~id () =
  if rate_bps <= 0. then invalid_arg "Link.create: rate must be positive";
  let t =
    {
      sched;
      rate_bps;
      delay;
      jitter;
      (* Seeded from the link id: runs stay bit-for-bit reproducible. *)
      jitter_rng = Sim_engine.Rng.create ~seed:(0x11CC + id);
      queue;
      id;
      deliver = None;
      peer = min_int;
      taps = [];
      busy = false;
      last_delivery = Time.zero;
      tx_pool = None;
      rx_pool = None;
      reserved_bps = 0.;
      st = { tx_packets = 0; tx_bytes = 0; busy_ns = 0 };
    }
  in
  t.tx_pool <- Some (Scheduler.Event.pool sched ~fire:(fun pkt -> tx_done t pkt));
  t.rx_pool <- Some (Scheduler.Event.pool sched ~fire:(fun pkt -> deliver_pkt t pkt));
  t

let send t pkt =
  if t.deliver = None then failwith "Link.send: no receiver attached";
  let accepted = Pktqueue.enqueue t.queue pkt in
  if accepted && not t.busy then pump t

let id t = t.id
let peer t = t.peer
let queue t = t.queue
let rate_bps t = t.rate_bps
let delay t = t.delay
let stats t = t.st

let set_reserved_bps t bps =
  t.reserved_bps <- Float.max 0. (Float.min bps t.rate_bps)

let utilisation t ~now =
  let n = Time.to_ns now in
  if n = 0 then 0. else float_of_int t.st.busy_ns /. float_of_int n

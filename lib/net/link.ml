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
  (* When the packet last started leaves the transmitter: the
     transmitter is free from this instant on. There is no busy flag
     beside it: every link of every model builds this record, so a
     field costs a word per link even where no packet ever flows. *)
  mutable tx_end : Time.t;
  mutable last_delivery : Time.t;
  (* [tx_pool]'s one event, the tx-done, carries the link to
     [tx_done] at [tx_end] to start the next packet; it is pending
     exactly while a packet waits in [queue], so the queue tells
     whether it is. [rx_pool] holds one cell per packet propagating on
     the wire (D007/§4j: scheduling moves ownership into the pending
     event; the fire function receives it back). Option-wrapped only
     because its fire function needs [t]: it is installed in
     [create], immediately after the record exists, and never
     changes. *)
  tx_pool : t Scheduler.Event.pool;
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

(* Dev-profile invariant, after [send] and after a tx-done: one
   tx-done is pending while a packet waits in the queue, and none
   otherwise. Without one the queue would stall silently; [send]
   reads the queue to tell whether one is pending. *)
let check_armed t what =
  if Sim_engine.Sanitizer_mode.on then begin
    let pending = Scheduler.Event.in_flight t.tx_pool in
    if pending <> (if Pktqueue.is_empty t.queue then 0 else 1) then
      failwith
        (Printf.sprintf "Link %d: %s left %d packets queued with %d tx-dones \
                         pending" t.id what (Pktqueue.backlog_pkts t.queue)
           pending)
  end

(* Start serialising the head of the (non-empty) queue. The packet's
   arrival is fixed from here on, so its rx event is armed at once:
   propagation gets a small random jitter (switch pipelines and NICs
   are not perfectly deterministic; without this, exact ACK-clocking
   produces drop-tail lockout artifacts), clamped so the link stays
   FIFO. The tx-done is armed for the end of serialisation only when
   another packet waits behind this one. *)
let pump t =
  let now = Scheduler.now t.sched in
  if Sim_engine.Sanitizer_mode.on && Time.(now < t.tx_end) then
    failwith
      (Printf.sprintf "Link %d: serialisation starts at %d ns, before the \
                       previous one ends at %d ns" t.id (Time.to_ns now)
         (Time.to_ns t.tx_end));
  let pkt = Pktqueue.take t.queue in
  let tx = tx_time t ~bytes:pkt.Packet.size in
  t.st.tx_packets <- t.st.tx_packets + 1;
  t.st.tx_bytes <- t.st.tx_bytes + pkt.Packet.size;
  t.st.busy_ns <- t.st.busy_ns + Time.to_ns tx;
  run_taps pkt t.taps;
  let tx_end = Time.add now tx in
  t.tx_end <- tx_end;
  let extra =
    if Time.is_zero t.jitter then Time.zero
    else Time.of_ns (int_of_float
           (Sim_engine.Rng.float t.jitter_rng
              (float_of_int (Time.to_ns t.jitter))))
  in
  let target = Time.add (Time.add tx_end t.delay) extra in
  let when_ = Time.max target t.last_delivery in
  t.last_delivery <- when_;
  Scheduler.Event.schedule_at (the_pool t.rx_pool) when_ pkt;
  if not (Pktqueue.is_empty t.queue) then
    Scheduler.Event.schedule_at t.tx_pool tx_end t

(* Transmitter-side fire: serialisation done while a packet waits. *)
let tx_done t =
  pump t;
  check_armed t "tx-done"

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
      tx_end = Time.zero;
      last_delivery = Time.zero;
      tx_pool = Scheduler.Event.pool sched ~fire:tx_done;
      rx_pool = None;
      reserved_bps = 0.;
      st = { tx_packets = 0; tx_bytes = 0; busy_ns = 0 };
    }
  in
  t.rx_pool <- Some (Scheduler.Event.pool sched ~fire:(fun pkt -> deliver_pkt t pkt));
  t

(* An accepted packet starts at once when the transmitter is free.
   Otherwise a pending tx-done will start it; the first packet to wait
   behind the one on the transmitter arms that tx-done. A tx-done is
   pending exactly while a packet waits, so the packet just accepted
   is alone in the queue exactly when none is. *)
let send t pkt =
  if t.deliver = None then failwith "Link.send: no receiver attached";
  if Pktqueue.enqueue t.queue pkt && Pktqueue.backlog_pkts t.queue = 1 then begin
    if Time.(Scheduler.now t.sched >= t.tx_end) then pump t
    else Scheduler.Event.schedule_at t.tx_pool t.tx_end t
  end;
  check_armed t "send"

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

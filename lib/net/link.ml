module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable busy_ns : int;
}

(* The packets the link accepted and has not delivered, oldest first,
   in a ring: [len] of them from [pkts.(head)], wrapping at the
   ring's length. The first [timed] have started serialising, and
   [rx.(i)] is the arrival instant (ns) of the one in slot [i]; the
   rest wait behind the transmitter and make up the queue's backlog.
   The ring starts empty, takes its first arrays (filled with the
   first packet) at the first send and doubles when full. Slots
   outside the live span keep stale pointers to pool-owned packets,
   which the pool pins for the simulation's life anyway. *)
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
  mutable taps : (Time.t -> Packet.t -> unit) list;
  mutable pkts : Packet.t array;
  mutable rx : int array;
  mutable head : int;
  mutable len : int;
  mutable timed : int;
  (* When the last timed packet leaves the transmitter: the next
     waiting packet starts then. *)
  mutable tx_end : Time.t;
  mutable last_delivery : Time.t;
  (* One cell: the arrival of the oldest packet, pending exactly while
     a timed packet is undelivered. Its payload is the link. *)
  pool : t Scheduler.Event.pool;
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
let rec run_taps start pkt = function
  | [] -> ()
  | tap :: rest ->
    tap start pkt;
    run_taps start pkt rest

let[@inline] slot t i =
  let j = t.head + i in
  let n = Array.length t.pkts in
  if j >= n then j - n else j

(* Time the oldest waiting packet, whose serialisation starts at
   [start]: its serialisation at the rate in effect now, the stats,
   the taps and its arrival instant. Propagation gets a small random
   jitter (switch pipelines and NICs are not perfectly deterministic;
   without this, exact ACK-clocking produces drop-tail lockout
   artifacts), clamped so the link stays FIFO. The first timed packet
   arms the link's arrival event. *)
let time_next t start =
  let i = slot t t.timed in
  let pkt = t.pkts.(i) in
  let size = pkt.Packet.size in
  let tx = tx_time t ~bytes:size in
  Pktqueue.release t.queue ~bytes:size;
  t.st.tx_packets <- t.st.tx_packets + 1;
  t.st.tx_bytes <- t.st.tx_bytes + size;
  t.st.busy_ns <- t.st.busy_ns + Time.to_ns tx;
  run_taps start pkt t.taps;
  let tx_end = Time.add start tx in
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
  t.rx.(i) <- Time.to_ns when_;
  t.timed <- t.timed + 1;
  if t.timed = 1 then Scheduler.Event.schedule_at t.pool when_ t

(* Time, in FIFO order, every waiting packet whose serialisation has
   started by [now]. A waiting packet starts when the one before it
   leaves the transmitter: it waits only because that one was still
   serialising when it was accepted. *)
let catch_up_to t now =
  while t.timed < t.len && Time.(t.tx_end <= now) do
    time_next t t.tx_end
  done

(* Dev-profile invariants, after every operation: one arrival is
   pending exactly while a timed packet is undelivered, and no
   waiting packet's start is at or before now. *)
let check t what =
  if Sim_engine.Sanitizer_mode.on then begin
    let pending = Scheduler.Event.in_flight t.pool in
    if pending <> (if t.timed > 0 then 1 else 0) then
      failwith
        (Printf.sprintf "Link %d: %s left %d timed packets with %d arrivals \
                         pending" t.id what t.timed pending);
    let now = Scheduler.now t.sched in
    if t.timed < t.len && Time.(t.tx_end <= now) then
      failwith
        (Printf.sprintf "Link %d: %s left a packet waiting that starts at %d \
                         ns, not after now (%d ns)" t.id what
           (Time.to_ns t.tx_end) (Time.to_ns now))
  end

let catch_up t =
  catch_up_to t (Scheduler.now t.sched);
  check t "catch-up"

(* The oldest packet arrives. Catching up first times the next one,
   whose start has passed: it left the transmitter before this one
   could arrive. Its arrival is armed before this one is delivered. *)
let arrive t =
  let now = Scheduler.now t.sched in
  catch_up_to t now;
  let pkt = t.pkts.(t.head) in
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.pkts then 0 else h);
  t.len <- t.len - 1;
  t.timed <- t.timed - 1;
  if t.timed > 0 then begin
    let next = t.rx.(t.head) in
    (* Arrivals on a link never go back in time. *)
    if Sim_engine.Sanitizer_mode.on && next < Time.to_ns now then
      failwith
        (Printf.sprintf "Link %d: next arrival at %d ns is before now (%d ns)"
           t.id next (Time.to_ns now));
    Scheduler.Event.schedule_at t.pool (Time.of_ns next) t
  end;
  check t "arrival";
  match t.deliver with
  | Some f -> f pkt
  | None ->
    (* Unreachable: [send] refuses traffic until [attach]. *)
    failwith "Link.send: no receiver attached"

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
      pkts = [||];
      rx = [||];
      head = 0;
      len = 0;
      timed = 0;
      tx_end = Time.zero;
      last_delivery = Time.zero;
      pool = Scheduler.Event.pool sched ~fire:arrive;
      reserved_bps = 0.;
      st = { tx_packets = 0; tx_bytes = 0; busy_ns = 0 };
    }
  in
  if Pktqueue.metered queue then Pktqueue.set_sync queue (fun () -> catch_up t);
  t

(* Room for one more packet: copy the live span, oldest first, into
   rings twice as long. *)
let grow t pkt =
  let n = Array.length t.pkts in
  let n' = if n = 0 then 8 else 2 * n in
  let pkts = Array.make n' pkt and rx = Array.make n' 0 in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    pkts.(i) <- t.pkts.(j);
    rx.(i) <- t.rx.(j)
  done;
  t.pkts <- pkts;
  t.rx <- rx;
  t.head <- 0

(* An accepted packet joins the FIFO. It starts at once when the
   transmitter is free, and the catch-up before the admission has
   timed every packet that could start before it; otherwise it waits
   for the packet before it to leave the transmitter. *)
let send t pkt =
  if t.deliver = None then failwith "Link.send: no receiver attached";
  let now = Scheduler.now t.sched in
  catch_up_to t now;
  if Pktqueue.admit t.queue pkt then begin
    if t.len = Array.length t.pkts then grow t pkt;
    t.pkts.(slot t t.len) <- pkt;
    t.len <- t.len + 1;
    if Time.(t.tx_end <= now) then time_next t now
  end;
  check t "send"

let id t = t.id
let peer t = t.peer
let queue t = t.queue
let rate_bps t = t.rate_bps
let delay t = t.delay

let stats t =
  catch_up t;
  t.st

let set_reserved_bps t bps =
  catch_up t;
  t.reserved_bps <- Float.max 0. (Float.min bps t.rate_bps)

let utilisation t =
  catch_up t;
  let n = Time.to_ns (Scheduler.now t.sched) in
  if n = 0 then 0. else float_of_int t.st.busy_ns /. float_of_int n

type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable bytes_enqueued : int;
  mutable max_backlog : int;
}

(* A ring of packets: [len] of them, the oldest at [ring.(head)],
   wrapping at the ring's length. The ring starts empty, takes its
   first backing array (filled with the first packet) at the first
   enqueue, and doubles up to [cap] when full, so a queue that never
   builds a backlog never holds [cap] slots. Slots outside the live
   span keep stale pointers to pool-owned packets, which the pool pins
   for the simulation's life anyway; clearing them would cost a store
   per dequeue. *)
type t = {
  mutable ring : Packet.t array;
  mutable head : int;
  mutable len : int;
  ctx : Sim_engine.Sim_ctx.t;
  cap : int;
  lay : Layer.t;
  mutable backlog_bytes : int;
  (* Installation order; every hook sees every dropped packet. *)
  mutable drop_hooks : (Packet.t -> unit) list;
  st : stats;
  m : (Sim_obs.Metrics.t * string) option;
      (* the registry and this queue's name in it, [Some] only when the
         registry is on: nothing else reads the name *)
}

let create ~ctx ~capacity ~layer () =
  if capacity <= 0 then invalid_arg "Pktqueue.create: capacity must be positive";
  let queue_id = Sim_engine.Sim_ctx.fresh_queue_id ctx in
  let metrics = Sim_engine.Sim_ctx.metrics ctx in
  let t =
    {
      ring = [||];
      head = 0;
      len = 0;
      ctx;
      cap = capacity;
      lay = layer;
      backlog_bytes = 0;
      drop_hooks = [];
      st = { enqueued = 0; dropped = 0; bytes_enqueued = 0; max_backlog = 0 };
      m =
        (if Sim_obs.Metrics.active metrics then
           Some
             ( metrics,
               Printf.sprintf "q%d.%s" queue_id (Layer.to_string layer) )
         else None);
    }
  in
  (match t.m with
   | Some (m, qname) ->
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"pktqueue" ~id:qname ~name ~units
         read
     in
     reg "depth_pkts" "pkts" (fun () -> float_of_int t.len);
     reg "depth_bytes" "bytes" (fun () -> float_of_int t.backlog_bytes);
     reg "drops" "pkts" (fun () -> float_of_int t.st.dropped)
   | None -> ());
  t

let add_drop_hook t hook = t.drop_hooks <- t.drop_hooks @ [ hook ]

let backlog_pkts t = t.len
let backlog_bytes t = t.backlog_bytes
let is_empty t = t.len = 0
let layer t = t.lay
let stats t = t.st

(* Room for one more packet, the ring full below [cap]: copy the live
   span, oldest first, into a ring twice as long (at most [cap]). *)
let grow t pkt =
  let n = Array.length t.ring in
  let ring = Array.make (if n = 0 then min t.cap 8 else min t.cap (2 * n)) pkt in
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    ring.(i) <- t.ring.(if j >= n then j - n else j)
  done;
  t.ring <- ring;
  t.head <- 0

let enqueue t pkt =
  if t.len >= t.cap then begin
    t.st.dropped <- t.st.dropped + 1;
    (match t.m with
     | Some (m, qname) ->
       Sim_obs.Metrics.emit m ~kind:"queue_drop"
         ~conn:pkt.Packet.conn
         ~subflow:pkt.Packet.subflow
         ~info:
           [ ("queue", qname); ("size", string_of_int pkt.Packet.size) ]
         ()
     | None -> ());
    List.iter (fun f -> f pkt) t.drop_hooks;
    (* A drop ends the packet's life; hooks have all seen it. The
       order is a contract (pktqueue.mli): free strictly after the
       last hook, so hooks read a live packet but must copy to
       retain. *)
    Packet.free ~ctx:t.ctx pkt;
    false
  end
  else begin
    if t.len = Array.length t.ring then grow t pkt;
    let n = Array.length t.ring in
    let tail = t.head + t.len in
    t.ring.(if tail >= n then tail - n else tail) <- pkt;
    t.len <- t.len + 1;
    t.backlog_bytes <- t.backlog_bytes + pkt.Packet.size;
    t.st.enqueued <- t.st.enqueued + 1;
    t.st.bytes_enqueued <- t.st.bytes_enqueued + pkt.Packet.size;
    if t.len > t.st.max_backlog then t.st.max_backlog <- t.len;
    true
  end

let take t =
  if t.len = 0 then invalid_arg "Pktqueue.take: empty queue";
  let pkt = t.ring.(t.head) in
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.ring then 0 else h);
  t.len <- t.len - 1;
  t.backlog_bytes <- t.backlog_bytes - pkt.Packet.size;
  pkt

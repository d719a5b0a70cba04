type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable bytes_enqueued : int;
  mutable max_backlog : int;
}

type t = {
  q : Packet.t Queue.t;
  ctx : Sim_engine.Sim_ctx.t;
  cap : int;
  lay : Layer.t;
  qname : string;
  mutable backlog_bytes : int;
  (* Installation order; every hook sees every dropped packet. *)
  mutable drop_hooks : (Packet.t -> unit) list;
  st : stats;
  m : Sim_obs.Metrics.t option;  (* [Some] only when the registry is on *)
}

let create ~ctx ~capacity ~layer () =
  if capacity <= 0 then invalid_arg "Pktqueue.create: capacity must be positive";
  let queue_id = Sim_engine.Sim_ctx.fresh_queue_id ctx in
  let metrics = Sim_engine.Sim_ctx.metrics ctx in
  let qname = Printf.sprintf "q%d.%s" queue_id (Layer.to_string layer) in
  let t =
    {
      q = Queue.create ();
      ctx;
      cap = capacity;
      lay = layer;
      qname;
      backlog_bytes = 0;
      drop_hooks = [];
      st = { enqueued = 0; dropped = 0; bytes_enqueued = 0; max_backlog = 0 };
      m = (if Sim_obs.Metrics.active metrics then Some metrics else None);
    }
  in
  (match t.m with
   | Some m ->
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"pktqueue" ~id:qname ~name ~units
         read
     in
     reg "depth_pkts" "pkts" (fun () -> float_of_int (Queue.length t.q));
     reg "depth_bytes" "bytes" (fun () -> float_of_int t.backlog_bytes);
     reg "drops" "pkts" (fun () -> float_of_int t.st.dropped)
   | None -> ());
  t

let add_drop_hook t hook = t.drop_hooks <- t.drop_hooks @ [ hook ]

let backlog_pkts t = Queue.length t.q
let backlog_bytes t = t.backlog_bytes
let is_empty t = Queue.is_empty t.q
let capacity t = t.cap
let layer t = t.lay
let stats t = t.st

let enqueue t pkt =
  if Queue.length t.q >= t.cap then begin
    t.st.dropped <- t.st.dropped + 1;
    (match t.m with
     | Some m ->
       Sim_obs.Metrics.emit m ~kind:"queue_drop"
         ~conn:pkt.Packet.conn
         ~subflow:pkt.Packet.subflow
         ~info:
           [ ("queue", t.qname); ("size", string_of_int pkt.Packet.size) ]
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
    Queue.push pkt t.q;
    t.backlog_bytes <- t.backlog_bytes + pkt.Packet.size;
    t.st.enqueued <- t.st.enqueued + 1;
    t.st.bytes_enqueued <- t.st.bytes_enqueued + pkt.Packet.size;
    if Queue.length t.q > t.st.max_backlog then t.st.max_backlog <- Queue.length t.q;
    true
  end

let dequeue t =
  match Queue.take_opt t.q with
  | None -> None
  | Some pkt ->
    t.backlog_bytes <- t.backlog_bytes - pkt.Packet.size;
    Some pkt

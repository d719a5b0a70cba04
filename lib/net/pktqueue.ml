type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable bytes_enqueued : int;
  mutable max_backlog : int;
}

(* Admission and accounting only: the packets themselves sit in the
   link's FIFO. The backlog is the accepted packets whose
   serialisation the link has not yet timed. *)
type t = {
  ctx : Sim_engine.Sim_ctx.t;
  cap : int;
  lay : Layer.t;
  mutable backlog_pkts : int;
  mutable backlog_bytes : int;
  (* Installation order; every hook sees every dropped packet. *)
  mutable drop_hooks : (Packet.t -> unit) list;
  (* Run before a depth gauge reads the backlog: the link's catch-up,
     installed only when the registry is on. *)
  mutable sync : unit -> unit;
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
      ctx;
      cap = capacity;
      lay = layer;
      backlog_pkts = 0;
      backlog_bytes = 0;
      drop_hooks = [];
      sync = ignore;
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
     reg "depth_pkts" "pkts" (fun () ->
         t.sync ();
         float_of_int t.backlog_pkts);
     reg "depth_bytes" "bytes" (fun () ->
         t.sync ();
         float_of_int t.backlog_bytes);
     reg "drops" "pkts" (fun () -> float_of_int t.st.dropped)
   | None -> ());
  t

let add_drop_hook t hook = t.drop_hooks <- t.drop_hooks @ [ hook ]
let metered t = Option.is_some t.m
let set_sync t f = t.sync <- f

let backlog_pkts t = t.backlog_pkts
let backlog_bytes t = t.backlog_bytes
let layer t = t.lay
let stats t = t.st

let admit t pkt =
  if t.backlog_pkts >= t.cap then begin
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
    let n = t.backlog_pkts + 1 in
    t.backlog_pkts <- n;
    t.backlog_bytes <- t.backlog_bytes + pkt.Packet.size;
    t.st.enqueued <- t.st.enqueued + 1;
    t.st.bytes_enqueued <- t.st.bytes_enqueued + pkt.Packet.size;
    if n > t.st.max_backlog then t.st.max_backlog <- n;
    true
  end

let release t ~bytes =
  if t.backlog_pkts = 0 then invalid_arg "Pktqueue.release: empty backlog";
  t.backlog_pkts <- t.backlog_pkts - 1;
  t.backlog_bytes <- t.backlog_bytes - bytes

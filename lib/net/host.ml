(* The demux is the bound conn ids in ascending order, [conns.(i)]
   bound to [handlers.(i)] for [i < bound], found by binary search: a
   lookup allocates nothing and calls no C hash or compare. A host
   holds only the few connections open at it, while conn ids run up to
   every connection of the simulation, so an array indexed by conn id
   would cost each host that whole range. Ids are drawn in increasing
   order, so a bind almost always appends. *)
type t = {
  sched : Sim_engine.Scheduler.t;
  addr : Addr.t;
  mutable nics : Link.t array;
  mutable conns : int array;
  mutable handlers : (Packet.t -> unit) array;
  mutable bound : int;
  mutable unmatched : int;
}

let no_handler (_ : Packet.t) = ()

let create ~sched ~addr =
  {
    sched;
    addr;
    nics = [||];
    conns = [||];
    handlers = [||];
    bound = 0;
    unmatched = 0;
  }

let addr t = t.addr
let sched t = t.sched

let add_nic t link = t.nics <- Array.append t.nics [| link |]
let nic_count t = Array.length t.nics
let nics t = t.nics

let send t pkt =
  if Array.length t.nics = 0 then failwith "Host.send: host has no NIC";
  Link.send (Ecmp.pick pkt ~salt:(Addr.to_int t.addr + 0x5115) t.nics) pkt

(* The first slot whose conn id is not below [conn]. *)
let locate t conn =
  let lo = ref 0 and hi = ref t.bound in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.conns.(mid) < conn then lo := mid + 1 else hi := mid
  done;
  !lo

let is_bound t conn i = i < t.bound && t.conns.(i) = conn

(* The host is the end of a packet's life: once the bound handler has
   read it (handlers must not retain packets), the record goes back to
   the simulation's pool. Every sender and receiver is back in a
   steady state here, so this is where idle connections get closed. *)
let receive t pkt =
  let conn = pkt.Packet.conn in
  let i = locate t conn in
  if is_bound t conn i then t.handlers.(i) pkt
  else t.unmatched <- t.unmatched + 1;
  let ctx = Sim_engine.Scheduler.ctx t.sched in
  Packet.free ~ctx pkt;
  Packet.run_idle ~ctx

let bind t ~conn handler =
  let i = locate t conn in
  if is_bound t conn i then invalid_arg "Host.bind: connection id already bound";
  let n = t.bound in
  if n = Array.length t.conns then begin
    let len = max 8 (2 * n) in
    let conns = Array.make len 0 and handlers = Array.make len no_handler in
    Array.blit t.conns 0 conns 0 n;
    Array.blit t.handlers 0 handlers 0 n;
    t.conns <- conns;
    t.handlers <- handlers
  end;
  Array.blit t.conns i t.conns (i + 1) (n - i);
  Array.blit t.handlers i t.handlers (i + 1) (n - i);
  t.conns.(i) <- conn;
  t.handlers.(i) <- handler;
  t.bound <- n + 1

let unbind t ~conn =
  let i = locate t conn in
  if is_bound t conn i then begin
    let n = t.bound - 1 in
    Array.blit t.conns (i + 1) t.conns i (n - i);
    Array.blit t.handlers (i + 1) t.handlers i (n - i);
    (* The vacated slot must not keep a connection's handler alive. *)
    t.handlers.(n) <- no_handler;
    t.bound <- n
  end

let bind_conn ~src ~dst ~conn ~tx ~rx ~timers_pending ~on_close =
  bind src ~conn tx;
  bind dst ~conn rx;
  Packet.on_idle ~ctx:(Sim_engine.Scheduler.ctx src.sched) ~conn (fun () ->
      if timers_pending () then false
      else begin
        unbind src ~conn;
        unbind dst ~conn;
        on_close ();
        true
      end)

let unmatched t = t.unmatched

type t = {
  sched : Sim_engine.Scheduler.t;
  addr : Addr.t;
  mutable nics : Link.t array;
  demux : (int, Packet.t -> unit) Hashtbl.t;
  mutable unmatched : int;
}

let create ~sched ~addr =
  { sched; addr; nics = [||]; demux = Hashtbl.create 16; unmatched = 0 }

let addr t = t.addr
let sched t = t.sched

let add_nic t link = t.nics <- Array.append t.nics [| link |]
let nic_count t = Array.length t.nics
let nics t = t.nics

let send t pkt =
  if Array.length t.nics = 0 then failwith "Host.send: host has no NIC";
  Link.send (Ecmp.pick pkt ~salt:(Addr.to_int t.addr + 0x5115) t.nics) pkt

(* The host is the end of a packet's life: once the bound handler has
   read it (handlers must not retain packets), the record goes back to
   the simulation's pool. Every sender and receiver is back in a
   steady state here, so this is where idle connections get closed. *)
let receive t pkt =
  (match Hashtbl.find_opt t.demux pkt.Packet.conn with
   | Some handler -> handler pkt
   | None -> t.unmatched <- t.unmatched + 1);
  let ctx = Sim_engine.Scheduler.ctx t.sched in
  Packet.free ~ctx pkt;
  Packet.run_idle ~ctx

let bind t ~conn handler =
  if Hashtbl.mem t.demux conn then
    invalid_arg "Host.bind: connection id already bound";
  Hashtbl.replace t.demux conn handler

let unbind t ~conn = Hashtbl.remove t.demux conn

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

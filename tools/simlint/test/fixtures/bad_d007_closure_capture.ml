(* Fixture: a closure handed to the scheduler may fire after the
   packet has been freed and reissued to a different segment. *)
let on_packet pool (pkt : Sim_net.Packet.t) =
  ignore
    (Sim_engine.Scheduler.Event.schedule_after pool
       (Sim_engine.Sim_time.of_ns 10)
       (fun () -> ignore (Sim_net.Packet.sack_blocks pkt)))

(* A single MMPTCP connection under the microscope: sample the
   congestion windows over time and print a timeline showing the
   packet-scatter phase, the switch, and the MPTCP phase.

   Run with: dune exec examples/phase_switching.exe *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Fattree = Sim_net.Fattree
module Conn = Mmptcp.Mmptcp_conn
module Flow = Sim_tcp.Flow
module Strategy = Mmptcp.Strategy

let () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  let src = Topology.host net 0 and dst = Topology.host net 28 in
  let paths = Topology.paths net ~src:0 ~dst:28 in
  let rng = Sim_engine.Rng.create ~seed:9 in
  let conn =
    Conn.start ~src ~dst ~size:3_000_000 ~rng ~paths
      ~strategy:{ Strategy.default with Strategy.switch = Strategy.Data_volume 200_000 }
      ()
  in
  let flow = Conn.flow conn in
  Printf.printf "3 MB MMPTCP flow, switch after 200 KB, %d ECMP paths\n\n" paths;
  Printf.printf "%8s  %-14s %10s %12s %10s\n" "time(ms)" "phase" "cwnd(pkts)"
    "received(KB)" "rtos";
  (* Sample every 2 ms until the flow completes, on one re-armable
     timer whose state is the timer itself. *)
  let rec sample timer =
    if not (Flow.is_complete flow) then begin
      let phase =
        match Conn.phase conn with
        | Conn.Packet_scatter -> "packet-scatter"
        | Conn.Multipath -> "multipath"
      in
      Printf.printf "%8.1f  %-14s %10.1f %12.1f %10d\n"
        (Time.to_ms (Scheduler.now sched))
        phase
        (Conn.total_cwnd conn /. 1400.)
        (float_of_int (Flow.bytes_received flow) /. 1000.)
        (Flow.rto_events flow);
      Scheduler.Timer.schedule_after (Lazy.force timer) (Time.of_ms 2.)
    end
  and timer = lazy (Scheduler.Timer.create sched sample timer) in
  Scheduler.Timer.schedule_after (Lazy.force timer) Time.zero;
  Scheduler.run ~until:(Time.of_sec 30.) sched;
  (match Conn.switched_at conn with
   | Some t -> Printf.printf "\nswitched to MPTCP at %s\n" (Time.to_string t)
   | None -> print_endline "\nnever switched");
  match Flow.fct flow with
  | Some t -> Printf.printf "completed in %s\n" (Time.to_string t)
  | None -> print_endline "did not complete"

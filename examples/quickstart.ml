(* Quickstart: build a FatTree, send one MMPTCP flow across it, and
   watch the two phases.

   Run with: dune exec examples/quickstart.exe *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Fattree = Sim_net.Fattree

let () =
  (* 1. A scheduler owns virtual time; every component hangs off it. *)
  let sched = Scheduler.create () in

  (* 2. A 4-ary FatTree with 4:1 over-subscription - 64 hosts, the
     scaled-down version of the paper's 512-server fabric. *)
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:4 ()) in
  Printf.printf "built %s: %d hosts, %d switches, %d links\n"
    net.Topology.name
    (Array.length net.Topology.hosts)
    (Array.length net.Topology.switches)
    (Array.length net.Topology.links);

  (* 3. Pick two hosts in different pods and ask the topology how many
     equal-cost paths its route tables hold between them: MMPTCP's
     topology-aware dup-ACK threshold is derived from this number. *)
  let src = Topology.host net 0 and dst = Topology.host net 60 in
  let paths = Topology.paths net ~src:0 ~dst:60 in
  Printf.printf "host 0 -> host 60: %d equal-cost paths\n" paths;

  (* 4. Start a 2 MB MMPTCP connection. It begins in the packet-scatter
     phase (one window, random source port per packet) and switches to
     MPTCP with 8 subflows after 100 KB. *)
  let rng = Sim_engine.Rng.create ~seed:42 in
  let conn =
    Mmptcp.Mmptcp_conn.start ~src ~dst ~size:2_000_000 ~rng ~paths
      ~on_switch:(fun c ->
        Printf.printf "  [%.3f ms] switched to MPTCP phase (8 subflows)\n"
          (Time.to_ms (Scheduler.now sched));
        ignore c)
      ()
  in
  Printf.printf "scatter-phase dup-ACK threshold: %d\n"
    (Mmptcp.Mmptcp_conn.current_dupack_threshold conn);

  (* 5. Run the simulation and report. *)
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  let flow = Mmptcp.Mmptcp_conn.flow conn in
  (match Sim_tcp.Flow.fct flow with
   | Some t ->
     Printf.printf "flow completed in %s (%d bytes received)\n"
       (Time.to_string t)
       (Sim_tcp.Flow.bytes_received flow)
   | None -> print_endline "flow did not complete (raise the horizon?)");
  Printf.printf "events processed: %d\n" (Scheduler.events_processed sched)

(* An incast: many servers answer one aggregator at once - the classic
   burst that drives short TCP flows into retransmission timeouts.
   Compares TCP, MPTCP-8 and MMPTCP on the same synchronized burst.

   Run with: dune exec examples/incast.exe *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Fattree = Sim_net.Fattree
module Host = Sim_net.Host
module Summary = Sim_stats.Summary
module Flow = Sim_tcp.Flow

let fanin = 24
let reply_size = 70_000

(* Senders spread over the whole fabric answer host 0 simultaneously. *)
let pick_senders net =
  let n = Topology.host_count net in
  List.init fanin (fun i -> 1 + (i * (n - 1) / fanin))

(* [start src dst size] starts one reply under the protocol compared. *)
let run_burst name start =
  let sched = Scheduler.create () in
  let spec = Sim_workload.Scenario.paper_link_spec in
  let net =
    Fattree.create ~sched
      { (Fattree.default_params ~k:4 ~oversub:4 ()) with
        Fattree.host_spec = spec;
        fabric_spec = spec }
  in
  let dst = Topology.host net 0 in
  let flows =
    List.map
      (fun s -> start (Topology.host net s) dst reply_size)
      (pick_senders net)
  in
  Scheduler.run ~until:(Time.of_sec 30.) sched;
  let fcts =
    List.filter_map (fun f -> Option.map Time.to_ms (Flow.fct f)) flows
  in
  let rtos = List.fold_left (fun a f -> a + Flow.rto_events f) 0 flows in
  let s = Summary.of_list fcts in
  Printf.printf
    "%-22s %d/%d done | mean %7.1f ms | p99 %8.1f ms | worst %8.1f ms | rtos %d\n"
    name (List.length fcts) fanin s.Summary.mean s.Summary.p99 s.Summary.max
    rtos

let tcp src dst size = Flow.start ~src ~dst ~size ()
let mptcp src dst size = Flow.start_mptcp ~src ~dst ~size ~subflows:8 ()

let mmptcp =
  let seeds = ref 0 in
  fun src dst size ->
    incr seeds;
    let rng = Sim_engine.Rng.create ~seed:(1000 + !seeds) in
    Mmptcp.Mmptcp_conn.flow
      (Mmptcp.Mmptcp_conn.start ~src ~dst ~size ~rng ~paths:4 ())

let () =
  Printf.printf "incast: %d senders -> 1 aggregator, %d KB each, all at t=0\n\n"
    fanin (reply_size / 1000);
  run_burst "tcp" tcp;
  run_burst "mptcp-8" mptcp;
  run_burst "mmptcp" mmptcp;
  print_endline
    "\nThe scatter phase spreads each response over every available path\n\
     under one congestion window, so the synchronized burst does not\n\
     concentrate on a handful of (subflow-pinned) queues."

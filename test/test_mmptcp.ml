(* MMPTCP tests: strategies, phase switching, scatter behaviour and
   end-to-end delivery. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Link = Sim_net.Link
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Fattree = Sim_net.Fattree
module Vl2 = Sim_net.Vl2
module Strategy = Mmptcp.Strategy
module Conn = Mmptcp.Mmptcp_conn
module Flow = Sim_tcp.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let is_complete c = Flow.is_complete (Conn.flow c)
let bytes_received c = Flow.bytes_received (Conn.flow c)

let default_strategy = Strategy.default

let direct_rig ?data_filter () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  (match data_filter with
   | Some keep ->
     Link.attach net.Topology.links.(0) (fun pkt ->
         if keep pkt then Host.receive dst pkt)
   | None -> ());
  (sched, net, src, dst)

(* ------------------------------------------------------------------ *)
(* Strategy *)

let test_strategy_default () =
  check_int "8 subflows" 8 default_strategy.Strategy.subflows;
  (match default_strategy.Strategy.switch with
   | Strategy.Data_volume v -> check_bool "above 70KB shorts" true (v > 70_000)
   | _ -> Alcotest.fail "default switch should be data volume");
  check_bool "topology aware" true
    (default_strategy.Strategy.dupack = Strategy.Topology_aware)

let test_strategy_printing () =
  Alcotest.(check string) "switch" "data-volume(100000B)"
    (Strategy.switch_to_string (Strategy.Data_volume 100_000));
  Alcotest.(check string) "congestion" "congestion-event"
    (Strategy.switch_to_string Strategy.Congestion_event);
  Alcotest.(check string) "dupack" "adaptive(3..64)"
    (Strategy.dupack_to_string (Strategy.Adaptive { initial = 3; cap = 64 }))

(* ------------------------------------------------------------------ *)
(* Phase behaviour *)

let test_short_flow_stays_in_ps () =
  let sched, _net, src, dst = direct_rig () in
  let c =
    Conn.start ~src ~dst ~size:70_000 ~rng:(Rng.create ~seed:1)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Data_volume 100_000 }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "never switched" true (Conn.switched_at c = None);
  check_bool "still scatter phase" true (Conn.phase c = Conn.Packet_scatter);
  check_int "no multipath subflows" 0 (Array.length (Conn.multipath_txs c))

let test_long_flow_switches_at_volume () =
  let sched, _net, src, dst = direct_rig () in
  let c =
    Conn.start ~src ~dst ~size:500_000 ~rng:(Rng.create ~seed:2)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Data_volume 100_000 }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "switched" true (Conn.switched_at c <> None);
  check_bool "multipath phase" true (Conn.phase c = Conn.Multipath);
  check_int "opened 8 subflows" 8 (Array.length (Conn.multipath_txs c));
  check_int "all bytes" 500_000 (bytes_received c)

let test_switch_callback_and_volume_bound () =
  let sched, _net, src, dst = direct_rig () in
  let assigned_at_switch = ref (-1) in
  let c =
    Conn.start ~src ~dst ~size:500_000 ~rng:(Rng.create ~seed:3)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Data_volume 100_000 }
      ~on_switch:(fun c ->
        assigned_at_switch := bytes_received c)
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "switch observed" true (!assigned_at_switch >= 0);
  (* At the moment of switching at most ~threshold (+ one window) bytes
     can have been received. *)
  check_bool "switched near threshold" true (!assigned_at_switch <= 160_000)

let test_never_strategy_stays_ps () =
  let sched, _net, src, dst = direct_rig () in
  let c =
    Conn.start ~src ~dst ~size:500_000 ~rng:(Rng.create ~seed:4)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Never }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "no switch" true (Conn.switched_at c = None);
  check_int "no subflows" 0 (Array.length (Conn.multipath_txs c))

let test_congestion_event_switches () =
  (* Drop one early data packet: the resulting fast retransmit (or
     RTO) is the first congestion event and must flip the phase. *)
  let dropped = ref false in
  let keep pkt =
    if (not !dropped) && Packet.is_data pkt && pkt.Packet.seq = 14_000
    then begin
      dropped := true;
      false
    end
    else true
  in
  let sched, _net, src, dst = direct_rig ~data_filter:keep () in
  let c =
    Conn.start ~src ~dst ~size:500_000 ~rng:(Rng.create ~seed:5)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Congestion_event }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "dropped" true !dropped;
  check_bool "switched on congestion" true (Conn.switched_at c <> None);
  check_int "all bytes" 500_000 (bytes_received c)

let test_congestion_event_no_loss_no_switch () =
  (* Small enough (50 segments) that slow start cannot overflow the
     100-packet queue: a genuinely clean run. *)
  let sched, _net, src, dst = direct_rig () in
  let c =
    Conn.start ~src ~dst ~size:70_000 ~rng:(Rng.create ~seed:6)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Congestion_event }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "clean run stays in PS" true (Conn.switched_at c = None)

(* ------------------------------------------------------------------ *)
(* Dup-ACK threshold strategies *)

let test_topology_aware_threshold () =
  let sched, _net, src, dst = direct_rig () in
  ignore sched;
  let c16 =
    Conn.start ~src ~dst ~size:1 ~rng:(Rng.create ~seed:7)
      ~strategy:{ default_strategy with Strategy.dupack = Strategy.Topology_aware }
      ~paths:16 ()
  in
  check_int "threshold = paths" 16 (Conn.current_dupack_threshold c16)

let test_topology_aware_floor () =
  let sched, _net, src, dst = direct_rig () in
  ignore sched;
  let c =
    Conn.start ~src ~dst ~size:1 ~rng:(Rng.create ~seed:8)
      ~strategy:{ default_strategy with Strategy.dupack = Strategy.Topology_aware }
      ~paths:1 ()
  in
  check_int "floor of 3" 3 (Conn.current_dupack_threshold c)

let test_static_threshold () =
  let sched, _net, src, dst = direct_rig () in
  ignore sched;
  let c =
    Conn.start ~src ~dst ~size:1 ~rng:(Rng.create ~seed:9)
      ~strategy:{ default_strategy with Strategy.dupack = Strategy.Static 7 }
      ~paths:16 ()
  in
  check_int "static ignores paths" 7 (Conn.current_dupack_threshold c)

let test_adaptive_threshold_grows_on_dsack () =
  (* Duplicate one data packet in flight: the receiver flags the second
     copy, and the adaptive strategy must raise the threshold. *)
  let duplicated = ref false in
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  (* Copy before delivering: [Host.receive] returns the packet to the
     pool, so the duplicate must be its own physical packet. *)
  Link.attach net.Topology.links.(0) (fun pkt ->
      let dup =
        if (not !duplicated) && Packet.is_data pkt && pkt.Packet.seq = 14_000
        then begin
          duplicated := true;
          Some (Packet.copy ~ctx:(Scheduler.ctx sched) pkt)
        end
        else None
      in
      Host.receive dst pkt;
      Option.iter (Host.receive dst) dup);
  let c =
    Conn.start ~src ~dst ~size:70_000 ~rng:(Rng.create ~seed:10)
      ~strategy:
        { default_strategy with Strategy.dupack = Strategy.Adaptive { initial = 3; cap = 16 } }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "duplicate injected" true !duplicated;
  check_bool "dsack observed" true (Conn.spurious_rtx_signals c >= 1);
  check_int "threshold grew" 4 (Conn.current_dupack_threshold c)

let test_adaptive_threshold_capped () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  (* Duplicate every data packet: threshold must stop at the cap. *)
  Link.attach net.Topology.links.(0) (fun pkt ->
      let dup =
        if Packet.is_data pkt then
          Some (Packet.copy ~ctx:(Scheduler.ctx sched) pkt)
        else None
      in
      Host.receive dst pkt;
      Option.iter (Host.receive dst) dup);
  let c =
    Conn.start ~src ~dst ~size:140_000 ~rng:(Rng.create ~seed:11)
      ~strategy:
        {
          default_strategy with
          Strategy.dupack = Strategy.Adaptive { initial = 3; cap = 6 };
          switch = Strategy.Never;
        }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  check_int "capped" 6 (Conn.current_dupack_threshold c)

(* ------------------------------------------------------------------ *)
(* Scatter behaviour *)

let test_ps_randomises_source_ports () =
  let ports = Hashtbl.create 64 in
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  Link.attach net.Topology.links.(0) (fun pkt ->
      if Packet.is_data pkt then
        Hashtbl.replace ports pkt.Packet.src_port ();
      Host.receive dst pkt);
  let c =
    Conn.start ~src ~dst ~size:70_000 ~rng:(Rng.create ~seed:12) ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (is_complete c);
  (* 50 segments: virtually all should carry distinct random ports. *)
  check_bool "many distinct ports" true (Hashtbl.length ports > 30)

let test_mp_phase_uses_fixed_ports () =
  let ps_ports = Hashtbl.create 64 and mp_ports = Hashtbl.create 64 in
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  Link.attach net.Topology.links.(0) (fun pkt ->
      if Packet.is_data pkt then begin
        let tbl = if pkt.Packet.subflow = 0 then ps_ports else mp_ports in
        Hashtbl.replace tbl pkt.Packet.src_port ()
      end;
      Host.receive dst pkt);
  let c =
    Conn.start ~src ~dst ~size:1_000_000 ~rng:(Rng.create ~seed:13)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Data_volume 100_000 }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 20.) sched;
  check_bool "complete" true (is_complete c);
  check_bool "scatter randomised" true (Hashtbl.length ps_ports > 20);
  (* 8 subflows, one fixed port each. *)
  check_int "multipath ports fixed" 8 (Hashtbl.length mp_ports)

let test_ps_deactivates_after_switch () =
  let sched, _net, src, dst = direct_rig () in
  let c =
    Conn.start ~src ~dst ~size:1_000_000 ~rng:(Rng.create ~seed:14)
      ~strategy:{ default_strategy with Strategy.switch = Strategy.Data_volume 100_000 }
      ()
  in
  Scheduler.run ~until:(Time.of_sec 20.) sched;
  check_bool "complete" true (is_complete c);
  let ps = Conn.scatter_tx c in
  (* The scatter flow must have carried roughly the volume threshold,
     not the whole transfer. *)
  let sent = (Sim_tcp.Tcp_tx.stats ps).Sim_tcp.Tcp_tx.bytes_sent in
  check_bool "ps stopped near threshold" true (sent <= 200_000);
  check_bool "ps drained" true
    (Sim_tcp.Tcp_tx.flight ps = 0)

(* ------------------------------------------------------------------ *)
(* Robustness *)

let test_mmptcp_random_loss_property =
  QCheck.Test.make ~name:"mmptcp completes under random loss" ~count:15
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, percent) ->
      let rng = Sim_engine.Rng.create ~seed in
      let sched = Scheduler.create () in
      let net = Dumbbell.direct ~sched () in
      let src = Topology.host net 0 and dst = Topology.host net 1 in
      Link.attach net.Topology.links.(0) (fun pkt ->
          if (not (Packet.is_data pkt)) || Sim_engine.Rng.int rng 100 >= percent
          then Host.receive dst pkt);
      let c =
        Conn.start ~src ~dst ~size:300_000 ~rng:(Sim_engine.Rng.create ~seed:(seed + 1))
          ~strategy:{ default_strategy with Strategy.switch = Strategy.Data_volume 100_000 }
          ()
      in
      Scheduler.run ~until:(Time.of_sec 300.) sched;
      is_complete c && bytes_received c = 300_000)

(* The topology-aware threshold is the routed path count, floored at
   3: 4 paths across the FatTree's pods; on VL2 the ToRs of hosts 0
   and 32 share both aggs, which leaves 2 paths. *)
let test_mmptcp_on_fattree_with_paths () =
  List.iter
    (fun (name, build, src, dst, threshold) ->
      let sched = Scheduler.create () in
      let net = build sched in
      let paths = Topology.paths net ~src ~dst in
      let c =
        Conn.start ~src:(Topology.host net src) ~dst:(Topology.host net dst)
          ~size:300_000 ~rng:(Rng.create ~seed:15) ~paths ()
      in
      Scheduler.run ~until:(Time.of_sec 20.) sched;
      check_bool (name ^ " complete") true (is_complete c);
      check_int (name ^ " threshold") threshold
        (Conn.current_dupack_threshold c))
    [
      ( "fattree 0->20",
        (fun sched ->
          Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ())),
        0, 20, 4 );
      ( "vl2 0->32",
        (fun sched -> Vl2.create ~sched (Vl2.default_params ())),
        0, 32, 3 );
    ]

let test_zero_size () =
  let sched, _net, src, dst = direct_rig () in
  let c = Conn.start ~src ~dst ~size:0 ~rng:(Rng.create ~seed:16) () in
  Scheduler.run ~until:(Time.of_sec 1.) sched;
  check_bool "complete" true (is_complete c)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "mmptcp"
    [
      ( "strategy",
        [
          Alcotest.test_case "defaults" `Quick test_strategy_default;
          Alcotest.test_case "printing" `Quick test_strategy_printing;
        ] );
      ( "phase-switching",
        [
          Alcotest.test_case "short stays PS" `Quick test_short_flow_stays_in_ps;
          Alcotest.test_case "long switches at volume" `Quick test_long_flow_switches_at_volume;
          Alcotest.test_case "switch callback" `Quick test_switch_callback_and_volume_bound;
          Alcotest.test_case "never strategy" `Quick test_never_strategy_stays_ps;
          Alcotest.test_case "congestion event switches" `Quick test_congestion_event_switches;
          Alcotest.test_case "no loss, no switch" `Quick test_congestion_event_no_loss_no_switch;
        ] );
      ( "dupack-threshold",
        [
          Alcotest.test_case "topology aware" `Quick test_topology_aware_threshold;
          Alcotest.test_case "topology floor" `Quick test_topology_aware_floor;
          Alcotest.test_case "static" `Quick test_static_threshold;
          Alcotest.test_case "adaptive grows" `Quick test_adaptive_threshold_grows_on_dsack;
          Alcotest.test_case "adaptive capped" `Quick test_adaptive_threshold_capped;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "randomised ports" `Quick test_ps_randomises_source_ports;
          Alcotest.test_case "mp fixed ports" `Quick test_mp_phase_uses_fixed_ports;
          Alcotest.test_case "ps deactivates" `Quick test_ps_deactivates_after_switch;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "fattree paths" `Quick test_mmptcp_on_fattree_with_paths;
          Alcotest.test_case "zero size" `Quick test_zero_size;
          qt test_mmptcp_random_loss_property;
        ] );
    ]

(* Structural and forwarding tests for the topology builders. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Addr = Sim_net.Addr
module Packet = Sim_net.Packet
module Topology = Sim_net.Topology
module Fattree = Sim_net.Fattree
module Multihomed = Sim_net.Multihomed
module Dumbbell = Sim_net.Dumbbell
module Host = Sim_net.Host
module Layer = Sim_net.Layer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Hand-built packets/queues in these tests sit outside any one
   simulation; a file-level context supplies their ids. *)
let ctx = Sim_engine.Sim_ctx.create ()

(* Raw data packet for forwarding probes. *)
let mk_pkt ?(conn = 1) ?(src_port = 1234) ?(len = 100) ~src ~dst () =
  Packet.make ~ctx ~src ~dst ~conn ~subflow:0 ~src_port ~dst_port:80 ~seq:0
    ~ack_seq:0 ~len ~bits:Packet.data_bits

let probe ?(conn = 999) ?(sport = 1234) net ~src ~dst =
  (* Send one raw data packet from host [src] to host [dst]; return
     whether it arrived within 10 ms of simulated time. *)
  let sched = net.Topology.sched in
  let arrived = ref false in
  let dst_host = Topology.host net dst in
  Host.bind dst_host ~conn (fun _ -> arrived := true);
  let src_host = Topology.host net src in
  Host.send src_host
    (mk_pkt ~conn ~src_port:sport ~src:(Host.addr src_host)
       ~dst:(Host.addr dst_host) ());
  Scheduler.run ~until:(Time.add (Scheduler.now sched) (Time.of_ms 10.)) sched;
  Host.unbind dst_host ~conn;
  !arrived

(* ------------------------------------------------------------------ *)
(* FatTree structure *)

let test_fattree_counts () =
  (* k=4, oversub=1: the textbook fat-tree — 16 hosts, 20 switches,
     48 fabric links + 32 host links (directed). *)
  let p = Fattree.default_params ~k:4 ~oversub:1 () in
  check_int "host count formula" 16 (Fattree.host_count p);
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched p in
  check_int "hosts" 16 (Array.length net.Topology.hosts);
  check_int "switches" 20 (Array.length net.Topology.switches);
  (* Directed links: host<->edge 2*16, edge<->agg 2*(4 pods * 2 * 2),
     agg<->core 2*(4 pods * 2 * 2). *)
  check_int "links" (32 + 32 + 32) (Array.length net.Topology.links)

let test_fattree_oversub_counts () =
  let p = Fattree.default_params ~k:4 ~oversub:4 () in
  check_int "4x hosts" 64 (Fattree.host_count p);
  let p8 = Fattree.default_params ~k:8 ~oversub:4 () in
  check_int "paper scale: 512 servers" 512 (Fattree.host_count p8)

(* Routed path counts of a built FatTree. *)
let fattree_paths ~k ~oversub =
  let net =
    Fattree.create ~sched:(Scheduler.create ())
      (Fattree.default_params ~k ~oversub ())
  in
  fun src dst -> Topology.paths net ~src ~dst

let test_fattree_path_count () =
  (* hosts_per_edge = 4, hosts_per_pod = 8. *)
  let pc = fattree_paths ~k:4 ~oversub:2 in
  check_int "same host" 0 (pc 3 3);
  check_int "same edge" 1 (pc 0 1);
  check_int "same pod" 2 (pc 0 5);
  check_int "cross pod" 4 (pc 0 13)

let test_fattree_path_count_k8 () =
  (* hosts_per_edge = 4, hosts_per_pod = 16. *)
  let pc = fattree_paths ~k:8 ~oversub:1 in
  check_int "same pod k8" 4 (pc 0 8);
  check_int "cross pod k8" 16 (pc 0 100)

let test_fattree_invalid () =
  Alcotest.check_raises "odd k" (Invalid_argument "Fattree: k must be even and >= 2")
    (fun () ->
      ignore
        (Fattree.create ~sched:(Scheduler.create ())
           (Fattree.default_params ~k:3 ())))

(* ------------------------------------------------------------------ *)
(* FatTree forwarding *)

let test_fattree_delivers_same_edge () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  check_bool "same edge" true (probe net ~src:0 ~dst:1)

let test_fattree_delivers_same_pod () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  check_bool "same pod" true (probe net ~src:0 ~dst:5)

let test_fattree_delivers_cross_pod () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  check_bool "cross pod" true (probe net ~src:0 ~dst:13)

let prop_fattree_all_pairs_deliver =
  QCheck.Test.make ~name:"fattree delivers between random pairs" ~count:60
    QCheck.(triple (int_range 0 63) (int_range 0 63) small_int)
    (fun (a, b, sport) ->
      QCheck.assume (a <> b);
      let sched = Scheduler.create () in
      let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:4 ()) in
      probe net ~src:a ~dst:b ~sport:(1000 + sport))

let test_fattree_scatter_uses_all_uplinks () =
  (* Many packets with random source ports from one host to a cross-pod
     destination must traverse every agg uplink of the source edge
     switch: the PS phase's requirement. *)
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  let dst_host = Topology.host net 13 in
  Host.bind dst_host ~conn:1 ignore;
  let src_host = Topology.host net 0 in
  for sport = 1 to 200 do
    Host.send src_host
      (mk_pkt ~src_port:(sport * 7919) ~src:(Host.addr src_host)
         ~dst:(Host.addr dst_host) ())
  done;
  Scheduler.run sched;
  (* Count how many distinct edge-layer fabric links carried traffic
     out of pod 0's edge 0 (they are the links with edge layer and
     nonzero tx, excluding host downlinks which carry none here). *)
  let used =
    Topology.layer_links net Layer.Edge_layer
    |> List.filter (fun l -> (Sim_net.Link.stats l).Sim_net.Link.tx_packets > 0)
    |> List.length
  in
  check_bool "both uplinks used" true (used >= 2)

(* ------------------------------------------------------------------ *)
(* Multihomed *)

let test_multihomed_structure () =
  let p = Multihomed.default_params ~k:4 ~oversub:2 () in
  check_int "hosts" 32 (Multihomed.host_count p);
  let sched = Scheduler.create () in
  let net = Multihomed.create ~sched p in
  Array.iter
    (fun h -> check_int "dual homed" 2 (Host.nic_count h))
    net.Topology.hosts

let prop_multihomed_delivers =
  QCheck.Test.make ~name:"multihomed delivers between random pairs" ~count:40
    QCheck.(triple (int_range 0 31) (int_range 0 31) small_int)
    (fun (a, b, sport) ->
      QCheck.assume (a <> b);
      let sched = Scheduler.create () in
      let net =
        Multihomed.create ~sched (Multihomed.default_params ~k:4 ~oversub:2 ())
      in
      probe net ~src:a ~dst:b ~sport:(1000 + sport))

let test_multihomed_more_paths () =
  let pf = Fattree.default_params ~k:4 ~oversub:2 () in
  let pm = Multihomed.default_params ~k:4 ~oversub:2 () in
  let sched = Scheduler.create () in
  let nf = Fattree.create ~sched pf in
  let sched2 = Scheduler.create () in
  let nm = Multihomed.create ~sched:sched2 pm in
  check_bool "multi-homing multiplies path diversity" true
    (Topology.paths nm ~src:0 ~dst:13 > Topology.paths nf ~src:0 ~dst:13)

(* ------------------------------------------------------------------ *)
(* VL2 *)

module Vl2 = Sim_net.Vl2

let test_vl2_structure () =
  let p = Vl2.default_params () in
  check_int "hosts" 64 (Vl2.host_count p);
  let sched = Scheduler.create () in
  let net = Vl2.create ~sched p in
  check_int "hosts built" 64 (Array.length net.Topology.hosts);
  (* 16 ToRs + 4 aggs + 4 intermediates. *)
  check_int "switches" 24 (Array.length net.Topology.switches)

let test_vl2_path_count () =
  let sched = Scheduler.create () in
  let net = Vl2.create ~sched (Vl2.default_params ()) in
  let pc src dst = Topology.paths net ~src ~dst in
  check_int "same host" 0 (pc 0 0);
  check_int "same tor" 1 (pc 0 1);
  (* ToRs 0 and 2 share no agg: 2 up-aggs x 4 intermediates x 2
     down-aggs. *)
  check_bool "cross tor rich" true (pc 0 8 >= 16)

let prop_vl2_delivers =
  QCheck.Test.make ~name:"vl2 delivers between random pairs" ~count:40
    QCheck.(triple (int_range 0 63) (int_range 0 63) small_int)
    (fun (a, b, sport) ->
      QCheck.assume (a <> b);
      let sched = Scheduler.create () in
      let net = Vl2.create ~sched (Vl2.default_params ()) in
      probe net ~src:a ~dst:b ~sport:(1000 + sport))

let test_vl2_scatter_spreads_intermediates () =
  let sched = Scheduler.create () in
  let net = Vl2.create ~sched (Vl2.default_params ()) in
  let dst_host = Topology.host net 63 in
  Host.bind dst_host ~conn:1 ignore;
  let src_host = Topology.host net 0 in
  for sport = 1 to 300 do
    Host.send src_host
      (mk_pkt ~src_port:(sport * 6151) ~src:(Host.addr src_host)
         ~dst:(Host.addr dst_host) ())
  done;
  Scheduler.run sched;
  (* All intermediate downlinks towards the destination agg pair should
     see traffic: scatter exercises the whole valiant core. *)
  let used =
    Topology.layer_links net Layer.Core_layer
    |> List.filter (fun l -> (Sim_net.Link.stats l).Sim_net.Link.tx_packets > 0)
    |> List.length
  in
  check_bool "several intermediate downlinks used" true (used >= 4)

(* ------------------------------------------------------------------ *)
(* Dumbbell / direct *)

let test_direct_delivers () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  check_bool "0 -> 1" true (probe net ~src:0 ~dst:1)

let test_dumbbell_delivers_both_ways () =
  let sched = Scheduler.create () in
  let net = Dumbbell.create ~sched ~pairs:3 () in
  check_bool "left to right" true (probe net ~src:0 ~dst:3);
  let sched2 = Scheduler.create () in
  let net2 = Dumbbell.create ~sched:sched2 ~pairs:3 () in
  check_bool "right to left" true (probe net2 ~src:4 ~dst:1)

let test_dumbbell_bottleneck_layer () =
  let sched = Scheduler.create () in
  let net = Dumbbell.create ~sched ~pairs:2 () in
  check_int "two core (bottleneck) links" 2
    (List.length (Topology.layer_links net Layer.Core_layer))

(* ------------------------------------------------------------------ *)
(* Routing goldens. Both digests were recorded on the closure-routed
   builders that preceded the route tables; they pin that the tables
   forward every packet, and enumerate every path, exactly as before.
   Both were recomputed without the parking lot on the code that still
   built it, so they check the same lines for every other topology. *)

let golden_topologies () =
  let sched () = Scheduler.create () in
  [
    ("fattree-k4-2",
     Fattree.create ~sched:(sched ()) (Fattree.default_params ~k:4 ~oversub:2 ()));
    ("fattree-k8-4",
     Fattree.create ~sched:(sched ()) (Fattree.default_params ~k:8 ~oversub:4 ()));
    ("vl2", Vl2.create ~sched:(sched ()) (Vl2.default_params ()));
    ("multihomed-k4-2",
     Multihomed.create ~sched:(sched ())
       (Multihomed.default_params ~k:4 ~oversub:2 ()));
    ("direct", Dumbbell.direct ~sched:(sched ()) ());
    ("dumbbell-3", Dumbbell.create ~sched:(sched ()) ~pairs:3 ());
  ]

(* Hop sequences (link ids) of one packet per 5-tuple, each sent alone
   into an idle network so no queue drops it. A packet crossing more
   than 64 links is in a routing loop: fail instead of hanging. *)
let forwarding_trace net tuples =
  let sched = net.Topology.sched in
  let hops = ref [] and n = ref 0 in
  Array.iter
    (fun l ->
      Sim_net.Link.add_tap l (fun _ _ ->
          incr n;
          if !n > 64 then failwith "routing loop";
          hops := Sim_net.Link.id l :: !hops))
    net.Topology.links;
  List.map
    (fun (src, dst, sport, dport) ->
      hops := [];
      n := 0;
      let s = Topology.host net src and d = Topology.host net dst in
      Host.send s
        (Packet.make ~ctx ~src:(Host.addr s) ~dst:(Host.addr d) ~conn:7
           ~subflow:0 ~src_port:sport ~dst_port:dport ~seq:0 ~ack_seq:0
           ~len:100 ~bits:Packet.data_bits);
      Scheduler.run sched;
      ((src, dst, sport, dport), List.rev !hops))
    tuples

let golden_tuples n =
  List.filter_map
    (fun i ->
      let src = i * 7 mod n and dst = ((i * 13) + 5) mod n in
      if src = dst then None
      else Some (src, dst, 1000 + (i * 7919 mod 60000), 80 + (i mod 3)))
    (List.init 400 Fun.id)

let digest_of_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let ints l = String.concat "," (List.map string_of_int l)

let forwarding_digest nets =
  List.concat_map
    (fun (name, net) ->
      forwarding_trace net (golden_tuples (Topology.host_count net))
      |> List.map (fun ((s, d, sp, dp), hops) ->
             check_bool "packet crossed a link" true (hops <> []);
             Printf.sprintf "%s %d %d %d %d: %s" name s d sp dp (ints hops)))
    nets
  |> digest_of_lines

let test_forwarding_golden () =
  Alcotest.(check string) "forwarding digest" "5a8f62eb402e499d051330bdf85363b6"
    (forwarding_digest (golden_topologies ()))

(* k/2 = 3 edges per pod: the first FatTrees where a dual-homed host's
   second edge is not also the edge before its home. *)
let k6_topologies () =
  [
    ("multihomed-k6-1",
     Multihomed.create ~sched:(Scheduler.create ())
       (Multihomed.default_params ~k:6 ~oversub:1 ()));
    ("fattree-k6-1",
     Fattree.create ~sched:(Scheduler.create ())
       (Fattree.default_params ~k:6 ~oversub:1 ()));
  ]

let test_forwarding_golden_k6 () =
  Alcotest.(check string) "forwarding digest" "abe111b31c5ae6ed342c2c20c3185e8c"
    (forwarding_digest (k6_topologies ()))

let test_enumeration_golden () =
  (* k=8 at 1:1 (128 hosts) keeps every (src, dst, choice) triple
     affordable; the forwarding golden covers k=8 at 4:1. *)
  let nets =
    ("fattree-k8-1",
     Fattree.create ~sched:(Scheduler.create ())
       (Fattree.default_params ~k:8 ~oversub:1 ()))
    :: List.filter
         (fun (name, _) ->
           not (List.mem name [ "fattree-k8-4"; "vl2"; "multihomed-k4-2" ]))
         (golden_topologies ())
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (name, net) ->
      let n = Topology.host_count net in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let paths = Topology.paths net ~src ~dst in
          Printf.bprintf buf "%s %d %d %d\n" name src dst paths;
          for choice = 0 to paths - 1 do
            Printf.bprintf buf "%s\n"
              (ints (Array.to_list (Topology.path net ~src ~dst ~choice)))
          done
        done
      done)
    nets;
  Alcotest.(check string) "enumeration digest" "2809db0fdad301ca05c66eb6efdbbbfc"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every hop sequence packets between [src] and [dst] actually take,
   over many source ports, is one of [Topology.path]'s, and together
   they are all of them. *)
let prop_routes_are_paths name mk =
  let n = Topology.host_count (mk ()) in
  QCheck.Test.make ~count:15
    ~name:(name ^ ": routed hop sequences are exactly the enumerated paths")
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    (fun (src, dst) ->
      QCheck.assume (src <> dst);
      let net = mk () in
      let routed =
        forwarding_trace net (List.init 1000 (fun i -> (src, dst, 1 + (i * 61), 80)))
        |> List.map snd |> List.sort_uniq compare
      in
      let paths = Topology.paths net ~src ~dst in
      let enumerated =
        List.init paths (fun choice ->
            Array.to_list (Topology.path net ~src ~dst ~choice))
      in
      List.for_all (fun r -> List.mem r enumerated) routed
      && List.length routed = paths)

let prop_vl2_routes_are_paths =
  prop_routes_are_paths "vl2" (fun () ->
      Vl2.create ~sched:(Scheduler.create ()) (Vl2.default_params ()))

let prop_multihomed_routes_are_paths =
  prop_routes_are_paths "multihomed k4 2:1" (fun () ->
      Multihomed.create ~sched:(Scheduler.create ())
        (Multihomed.default_params ~k:4 ~oversub:2 ()))

let prop_multihomed_k6_routes_are_paths =
  prop_routes_are_paths "multihomed k6 1:1" (fun () ->
      Multihomed.create ~sched:(Scheduler.create ())
        (Multihomed.default_params ~k:6 ~oversub:1 ()))

(* The routed counts MMPTCP's dup-ACK threshold reads off VL2 and the
   dual-homed FatTree, where they differ from the single-homed
   FatTree's: a VL2 agg homed to the destination ToR goes straight
   down, and a dual-homed host reaches two edges. *)
let test_paths_off_fattree () =
  let vl2 = Vl2.create ~sched:(Scheduler.create ()) (Vl2.default_params ()) in
  let mh =
    Multihomed.create ~sched:(Scheduler.create ())
      (Multihomed.default_params ~k:4 ~oversub:2 ())
  in
  List.iter
    (fun (name, net, src, dst, paths) ->
      check_int name paths (Topology.paths net ~src ~dst))
    [
      ("vl2 0->4", vl2, 0, 4, 9);
      ("vl2 0->32", vl2, 0, 32, 2);
      ("multihomed 0->1", mh, 0, 1, 2);
      ("multihomed 0->9", mh, 0, 9, 16);
    ]

(* ------------------------------------------------------------------ *)
(* Layer statistics *)

let test_layer_loss_rate_counts_drops () =
  let sched = Scheduler.create () in
  let spec = { Topology.default_link_spec with queue_capacity = 1 } in
  let net = Dumbbell.create ~sched ~bottleneck_spec:spec ~pairs:2 () in
  (* Blast packets from both left hosts to the right so the 1-packet
     bottleneck queue drops. *)
  List.iter
    (fun (src, dst, conn) ->
      let dst_host = Topology.host net dst in
      Host.bind dst_host ~conn ignore;
      let src_host = Topology.host net src in
      for i = 0 to 30 do
        Host.send src_host
          (mk_pkt ~conn ~src_port:(1000 + i) ~len:1400
             ~src:(Host.addr src_host) ~dst:(Host.addr dst_host) ())
      done)
    [ (0, 2, 50); (1, 3, 51) ];
  Scheduler.run sched;
  check_bool "bottleneck dropped" true
    (Topology.layer_loss_rate net Layer.Core_layer > 0.);
  check_bool "total drops positive" true (Topology.total_drops net > 0)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_net_topology"
    [
      ( "fattree-structure",
        [
          Alcotest.test_case "counts" `Quick test_fattree_counts;
          Alcotest.test_case "oversubscription" `Quick test_fattree_oversub_counts;
          Alcotest.test_case "path count" `Quick test_fattree_path_count;
          Alcotest.test_case "path count k8" `Quick test_fattree_path_count_k8;
          Alcotest.test_case "invalid params" `Quick test_fattree_invalid;
        ] );
      ( "fattree-forwarding",
        [
          Alcotest.test_case "same edge" `Quick test_fattree_delivers_same_edge;
          Alcotest.test_case "same pod" `Quick test_fattree_delivers_same_pod;
          Alcotest.test_case "cross pod" `Quick test_fattree_delivers_cross_pod;
          Alcotest.test_case "scatter uses uplinks" `Quick test_fattree_scatter_uses_all_uplinks;
          qt prop_fattree_all_pairs_deliver;
        ] );
      ( "multihomed",
        [
          Alcotest.test_case "structure" `Quick test_multihomed_structure;
          Alcotest.test_case "more paths" `Quick test_multihomed_more_paths;
          qt prop_multihomed_delivers;
        ] );
      ( "vl2",
        [
          Alcotest.test_case "structure" `Quick test_vl2_structure;
          Alcotest.test_case "path count" `Quick test_vl2_path_count;
          Alcotest.test_case "scatter spreads" `Quick test_vl2_scatter_spreads_intermediates;
          qt prop_vl2_delivers;
        ] );
      ( "reference-topologies",
        [
          Alcotest.test_case "direct" `Quick test_direct_delivers;
          Alcotest.test_case "dumbbell both ways" `Quick test_dumbbell_delivers_both_ways;
          Alcotest.test_case "bottleneck tagging" `Quick test_dumbbell_bottleneck_layer;
        ] );
      ( "routing",
        [
          Alcotest.test_case "forwarding golden" `Quick test_forwarding_golden;
          Alcotest.test_case "forwarding golden k=6" `Quick test_forwarding_golden_k6;
          Alcotest.test_case "enumeration golden" `Quick test_enumeration_golden;
          qt prop_vl2_routes_are_paths;
          qt prop_multihomed_routes_are_paths;
          qt prop_multihomed_k6_routes_are_paths;
          Alcotest.test_case "paths off fattree" `Quick test_paths_off_fattree;
        ] );
      ( "layer-stats",
        [ Alcotest.test_case "loss accounting" `Quick test_layer_loss_rate_counts_drops ] );
    ]

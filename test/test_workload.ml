(* Workload tests: traffic matrices and small scenario runs. *)

module Time = Sim_engine.Sim_time
module Rng = Sim_engine.Rng
module Traffic_matrix = Sim_workload.Traffic_matrix
module Scenario = Sim_workload.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Traffic matrices *)

let test_permutation_is_derangement () =
  let tm =
    Traffic_matrix.create ~rng:(Rng.create ~seed:1) ~hosts:50
      Traffic_matrix.Permutation
  in
  let dests = List.init 50 (fun src -> Traffic_matrix.dest tm ~src) in
  List.iteri (fun src d -> check_bool "no self" true (src <> d)) dests;
  check_int "is a permutation" 50
    (List.length (List.sort_uniq compare dests))

let test_permutation_stable () =
  let tm =
    Traffic_matrix.create ~rng:(Rng.create ~seed:2) ~hosts:20
      Traffic_matrix.Permutation
  in
  check_int "same partner every time"
    (Traffic_matrix.dest tm ~src:5)
    (Traffic_matrix.dest tm ~src:5)

let test_stride () =
  let tm =
    Traffic_matrix.create ~rng:(Rng.create ~seed:3) ~hosts:10
      (Traffic_matrix.Stride 3)
  in
  check_int "stride" 8 (Traffic_matrix.dest tm ~src:5);
  check_int "wraps" 2 (Traffic_matrix.dest tm ~src:9)

let test_stride_self_rejected () =
  Alcotest.check_raises "stride 0 maps to self"
    (Invalid_argument "Traffic_matrix.create: stride maps hosts to themselves")
    (fun () ->
      ignore
        (Traffic_matrix.create ~rng:(Rng.create ~seed:4) ~hosts:10
           (Traffic_matrix.Stride 10)))

let test_random_never_self () =
  let tm =
    Traffic_matrix.create ~rng:(Rng.create ~seed:5) ~hosts:5 Traffic_matrix.Random
  in
  for _ = 1 to 200 do
    check_bool "no self" true (Traffic_matrix.dest tm ~src:2 <> 2)
  done

let test_hotspot_senders_hit_targets () =
  let tm =
    Traffic_matrix.create ~rng:(Rng.create ~seed:6) ~hosts:40
      (Traffic_matrix.Hotspot { targets = 2; fraction = 1.0 })
  in
  (* With fraction 1.0 every non-hot host sends to a hot target. *)
  let dests =
    List.init 40 (fun src -> (src, Traffic_matrix.dest tm ~src))
  in
  let hot =
    List.sort_uniq compare (List.map snd dests)
  in
  (* All destinations drawn from <= 2 + permutation fallbacks for the
     hot hosts themselves. *)
  check_bool "few distinct destinations" true (List.length hot <= 6);
  List.iter (fun (src, d) -> check_bool "no self" true (src <> d)) dests

let prop_permutation_all_sizes =
  QCheck.Test.make ~name:"permutation valid for any size" ~count:100
    QCheck.(pair small_int (int_range 2 100))
    (fun (seed, n) ->
      let tm =
        Traffic_matrix.create ~rng:(Rng.create ~seed) ~hosts:n
          Traffic_matrix.Permutation
      in
      let dests = List.init n (fun src -> Traffic_matrix.dest tm ~src) in
      List.for_all2 (fun s d -> s <> d) (List.init n Fun.id) dests
      && List.length (List.sort_uniq compare dests) = n)

let test_kind_printing () =
  Alcotest.(check string) "permutation" "permutation"
    (Traffic_matrix.kind_to_string Traffic_matrix.Permutation);
  Alcotest.(check string) "hotspot" "hotspot(2 targets, 25%)"
    (Traffic_matrix.kind_to_string
       (Traffic_matrix.Hotspot { targets = 2; fraction = 0.25 }))

(* ------------------------------------------------------------------ *)
(* Scenario runs (small but real) *)

let small_config proto =
  {
    Scenario.default_config with
    Scenario.topo =
      Scenario.Fattree_topo (Sim_net.Fattree.default_params ~k:4 ~oversub:1 ());
    protocol = proto;
    seed = 11;
    short_flows = 24;
    short_rate = 50.;
    horizon = Time.of_sec 3.;
  }

let test_scenario_tcp_completes () =
  let r = Scenario.run (small_config Scenario.Tcp_proto) in
  check_int "all shorts scheduled" 24 (Array.length r.Scenario.shorts);
  check_int "all complete" 0 (Scenario.incomplete_shorts r);
  check_bool "longs present" true (Array.length r.Scenario.longs > 0);
  check_bool "events processed" true (r.Scenario.events > 0)

let test_scenario_records_sorted_and_ids () =
  let r = Scenario.run (small_config Scenario.Tcp_proto) in
  Array.iteri
    (fun i f ->
      check_int "sequential ids" i f.Scenario.id;
      if i > 0 then
        check_bool "sorted by start" true
          (Time.compare r.Scenario.shorts.(i - 1).Scenario.start f.Scenario.start <= 0))
    r.Scenario.shorts

let test_scenario_deterministic () =
  let fct_sum cfg =
    let r = Scenario.run cfg in
    Array.fold_left ( +. ) 0. (Scenario.short_fcts_ms r)
  in
  let a = fct_sum (small_config Scenario.Tcp_proto) in
  let b = fct_sum (small_config Scenario.Tcp_proto) in
  Alcotest.(check (float 1e-9)) "same seed, same result" a b

let test_scenario_seed_changes_result () =
  let r1 = Scenario.run (small_config Scenario.Tcp_proto) in
  let r2 =
    Scenario.run { (small_config Scenario.Tcp_proto) with Scenario.seed = 99 }
  in
  let s1 = Array.fold_left ( +. ) 0. (Scenario.short_fcts_ms r1) in
  let s2 = Array.fold_left ( +. ) 0. (Scenario.short_fcts_ms r2) in
  check_bool "different" true (Float.abs (s1 -. s2) > 1e-9)

let test_scenario_mptcp () =
  let r =
    Scenario.run (small_config (Scenario.Mptcp_proto { subflows = 4; coupled = true }))
  in
  check_int "complete" 0 (Scenario.incomplete_shorts r)

let test_scenario_mmptcp () =
  let r = Scenario.run (small_config (Scenario.Mmptcp_proto Mmptcp.Strategy.default)) in
  check_int "complete" 0 (Scenario.incomplete_shorts r)

let test_scenario_vl2_topology () =
  let cfg =
    {
      (small_config (Scenario.Mmptcp_proto Mmptcp.Strategy.default)) with
      Scenario.topo =
        Scenario.Vl2_topo (Sim_net.Vl2.default_params ~tors:8 ~hosts_per_tor:2 ());
    }
  in
  let r = Scenario.run cfg in
  check_int "complete on vl2" 0 (Scenario.incomplete_shorts r)

let test_scenario_multihomed_topology () =
  let cfg =
    {
      (small_config Scenario.Tcp_proto) with
      Scenario.topo =
        Scenario.Multihomed_topo (Sim_net.Multihomed.default_params ~k:4 ~oversub:1 ());
    }
  in
  let r = Scenario.run cfg in
  check_int "complete on dual-homed" 0 (Scenario.incomplete_shorts r)

let test_scenario_flow_sizes () =
  let r = Scenario.run (small_config Scenario.Tcp_proto) in
  Array.iter
    (fun f ->
      check_int "short size" 70_000 f.Scenario.flow_size;
      check_bool "short not long" false f.Scenario.is_long)
    r.Scenario.shorts;
  Array.iter
    (fun f -> check_bool "long flagged" true f.Scenario.is_long)
    r.Scenario.longs

let test_scenario_long_goodput_positive () =
  let r = Scenario.run (small_config Scenario.Tcp_proto) in
  let g = Scenario.long_goodput_mbps r in
  check_bool "some longs" true (Array.length g > 0);
  Array.iter (fun m -> check_bool "positive goodput" true (m > 0.)) g

(* How a run ends. A run stops once every budgeted short has arrived
   and closed, with the horizon as a cap. *)
let models =
  [
    ("packet", Scenario.Packet);
    ("fluid", Scenario.Fluid);
    ("hybrid", Scenario.Hybrid { handoff_bytes = 10_000 });
  ]

let ending_config model =
  {
    (small_config (Scenario.Mmptcp_proto Mmptcp.Strategy.default)) with
    Scenario.model;
    topo = Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:2 ());
  }

let last_completion (r : Scenario.result) =
  Array.fold_left
    (fun acc (f : Scenario.flow_result) ->
      match f.fct with
      | Some fct -> Time.max acc (Time.add f.start fct)
      | None -> acc)
    Time.zero r.shorts

let test_ends_on_last_close () =
  List.iter
    (fun (what, model) ->
      let cfg = ending_config model in
      let r = Scenario.run cfg in
      check_bool (what ^ ": ended on the last close") true
        (r.Scenario.ending = Scenario.Shorts_closed);
      check_bool (what ^ ": before the horizon") true
        Time.(r.Scenario.duration < cfg.Scenario.horizon);
      check_int (what ^ ": every short arrived") cfg.Scenario.short_flows
        (Array.length r.Scenario.shorts);
      check_int (what ^ ": every short complete") 0 (Scenario.incomplete_shorts r);
      check_bool (what ^ ": not before the last completion") true
        Time.(last_completion r <= r.Scenario.duration))
    models

let test_zero_shorts_reach_horizon () =
  List.iter
    (fun (what, model) ->
      let cfg =
        { (ending_config model) with Scenario.short_flows = 0;
          horizon = Time.of_ms 200. }
      in
      let r = Scenario.run cfg in
      check_bool (what ^ ": ended at the horizon") true
        (r.Scenario.ending = Scenario.Horizon);
      Alcotest.(check int64) (what ^ ": clock at the horizon")
        (Int64.of_int (Time.to_ns cfg.Scenario.horizon))
        (Int64.of_int (Time.to_ns r.Scenario.duration)))
    models

(* A probe whose only tick lies at the horizon still samples a run
   that ends before it: once, at the end instant, with the scheduler's
   gauges read there. *)
let test_probe_closing_sample () =
  let cfg = ending_config Scenario.Packet in
  let cfg =
    {
      cfg with
      Scenario.obs =
        {
          Scenario.default_obs with
          Scenario.probe_interval = Some cfg.Scenario.horizon;
          probe_conns = Some [];
        };
    }
  in
  let r = Scenario.run cfg in
  check_bool "ended early" true (r.Scenario.ending = Scenario.Shorts_closed);
  let cap = Option.get r.Scenario.obs in
  let end_ns = Time.to_ns r.Scenario.duration in
  let cells = ref [] in
  Array.iter
    (fun (t_ns, i, v) ->
      check_int "sampled at the end instant" end_ns t_ns;
      if cap.Sim_obs.Capture.gauges.(i).Sim_obs.Metrics.name = "event_cells" then
        cells := v :: !cells)
    cap.Sim_obs.Capture.samples;
  match !cells with
  | [ v ] -> check_bool "event_cells nonzero" true (v > 0.)
  | l -> Alcotest.failf "want one event_cells sample, got %d" (List.length l)

(* A promoted hybrid short is closed only once both of its stages
   are: the packet stage's connection (unbound from both hosts) and
   the fluid continuation (complete). *)
let test_hybrid_short_holds_run () =
  let module Host = Sim_net.Host in
  let module Topology = Sim_net.Topology in
  let module Flow_ledger = Sim_obs.Flow_ledger in
  let cfg = ending_config (Scenario.Hybrid { handoff_bytes = 10_000 }) in
  let sched = Sim_engine.Scheduler.create () in
  let ledger = Sim_engine.Sim_ctx.ledger (Sim_engine.Scheduler.ctx sched) in
  Flow_ledger.set_clock ledger ~clock_ns:(fun () ->
      Time.to_ns (Sim_engine.Scheduler.now sched));
  let net = Sim_workload.Model_hybrid.build ~sched cfg in
  let topo = Sim_workload.Model_hybrid.topology net in
  let bound host ~conn =
    match Host.bind host ~conn ignore with
    | () ->
      Host.unbind host ~conn;
      false
    | exception Invalid_argument _ -> true
  in
  let conn = ref (-1) and closes = ref [] in
  let on_close () =
    let e = (Flow_ledger.dump ledger).(0) in
    closes :=
      ( bound (Topology.host topo 0) ~conn:!conn,
        bound (Topology.host topo 13) ~conn:!conn,
        e.Flow_ledger.e_promote_ns >= 0,
        e.Flow_ledger.e_complete_ns >= 0 )
      :: !closes
  in
  conn :=
    Sim_workload.Model_hybrid.start_flow cfg net ~rng:(Rng.create ~seed:1)
      ~src_id:0 ~dst_id:13 ~size:70_000 ~on_close;
  Flow_ledger.on_start ledger ~conn:!conn ~src:0 ~dst:13 ~size:70_000 ~long:false;
  Sim_engine.Scheduler.run ~until:(Time.of_sec 1.) sched;
  match !closes with
  | [ (src_bound, dst_bound, promoted, complete) ] ->
    check_bool "promoted" true promoted;
    check_bool "packet stage unbound at source" false src_bound;
    check_bool "packet stage unbound at destination" false dst_bound;
    check_bool "fluid stage complete" true complete
  | l -> Alcotest.failf "want one close, got %d" (List.length l)

let test_protocol_names () =
  Alcotest.(check string) "tcp" "tcp" (Scenario.protocol_name Scenario.Tcp_proto);
  Alcotest.(check string) "mptcp" "mptcp-8"
    (Scenario.protocol_name (Scenario.Mptcp_proto { subflows = 8; coupled = true }));
  check_bool "mmptcp mentions strategy" true
    (String.length
       (Scenario.protocol_name (Scenario.Mmptcp_proto Mmptcp.Strategy.default))
     > 6)

(* Cross-commit golden: MD5s over every flow's outcome in a tiny
   FatTree run under each packet path, recorded before a drained
   connection could close and before outcomes were read off the flow
   ledger — so rtos, fast retransmits and bytes are in the digest.
   Neither change may move any simulated number. Short and long flows
   are digested apart. Changes that have moved a digest, on purpose:
   - A link hop became one event, its packet's rx armed when
     serialisation starts rather than when it ends. That reorders
     same-instant events, and MMPTCP's digest moved with the ties (46
     of its 211 flow lines); the other three did not.
   - Hybrid's long flows finish in the fluid engine, whose running
     conns now report their bytes up to the horizon rather than up to
     their last rate event.
   - A run ends once its last short has closed. The short rows did not
     move; the long flows' bytes are now read at that instant, so the
     long digests of the three runs that end before the 1 s horizon
     moved (MPTCP-4 uncoupled runs to it). *)
let outcome_digests cfg =
  let r = Scenario.run cfg in
  let digest flows =
    let b = Buffer.create 4096 in
    Array.iter
      (fun (f : Scenario.flow_result) ->
        Printf.bprintf b "%d %d %d %d %d %d %d %d\n" f.src f.dst f.flow_size
          (Time.to_ns f.start)
          (match f.fct with Some t -> Time.to_ns t | None -> -1)
          f.rtos f.fast_rtxs f.bytes_received)
      flows;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  (digest r.shorts, digest r.longs)

let test_golden_packet_outcomes () =
  List.iter
    (fun (what, model, protocol, shorts, longs) ->
      let cfg =
        {
          Scenario.default_config with
          Scenario.model;
          topo =
            Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:2 ());
          protocol;
          seed = 5;
          short_flows = 200;
          short_rate = 50.;
          horizon = Time.of_sec 1.;
        }
      in
      let s, l = outcome_digests cfg in
      Alcotest.(check string) (what ^ ": shorts") shorts s;
      Alcotest.(check string) (what ^ ": longs") longs l)
    [
      ( "packet, MMPTCP", Scenario.Packet,
        Scenario.Mmptcp_proto Mmptcp.Strategy.default,
        "33c0e755246ae709ab3aeb50eeaebad8", "91cf967b777c7aa4f91ba608e72268bf" );
      ("packet, TCP", Scenario.Packet, Scenario.Tcp_proto,
       "61e1352ef320d44481fc3e91b66d44f8", "f02961b224c6593c79e05c64e93f7b3c");
      ( "packet, MPTCP-4 uncoupled", Scenario.Packet,
        Scenario.Mptcp_proto { subflows = 4; coupled = false },
        "02f07ba2d2cbfa061a4f51e2b72887cc", "e9d48225b9e548c449477a6d84146d5f" );
      ( "hybrid, MPTCP-8", Scenario.Hybrid { handoff_bytes = 10_000 },
        Scenario.Mptcp_proto { subflows = 8; coupled = true },
        "90fba471d11c6817cb06d57f5c533846", "2641891b68907d708ca9ae6ed7179b4b" );
    ]

(* Cross-commit golden for same-instant arrivals. At 2e9 flows/s per
   host the mean gap is 0.5 ns, so most gaps round to 0 ns: arrivals
   of one host, and of every short host, tie at a few instants, and
   only their scheduling order separates them. The digest covers the
   ledger's (conn, src, dst, start) rows in arrival order, long flows
   included, so any change to that order moves it. *)
let test_golden_tied_arrivals () =
  List.iter
    (fun (what, model, want) ->
      let cfg =
        {
          Scenario.default_config with
          Scenario.model;
          topo =
            Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:2 ());
          protocol = Scenario.Mmptcp_proto Mmptcp.Strategy.default;
          seed = 3;
          short_flows = 60;
          short_rate = 2e9;
          horizon = Time.of_ms 20.;
          obs = { Scenario.default_obs with Scenario.ledger = true };
        }
      in
      let dump = Option.get (Scenario.run cfg).Scenario.ledger in
      let b = Buffer.create 2048 and ties = ref 0 and longs = ref 0 in
      Array.iteri
        (fun i (e : Sim_obs.Flow_ledger.entry) ->
          if i > 0 && dump.(i - 1).Sim_obs.Flow_ledger.e_start_ns = e.e_start_ns
          then incr ties;
          if e.e_long then incr longs;
          Printf.bprintf b "%d %d %d %d\n" e.e_conn e.e_src e.e_dst e.e_start_ns)
        dump;
      check_int (what ^ ": every flow arrived") (60 + !longs) (Array.length dump);
      check_bool (what ^ ": long flows") true (!longs > 0);
      check_bool (what ^ ": most arrivals tie") true (2 * !ties > 60);
      Alcotest.(check string)
        what want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      ("packet", Scenario.Packet, "cbed2a817e6bfc58cc16e3e79b223c6a");
      ("fluid", Scenario.Fluid, "cbed2a817e6bfc58cc16e3e79b223c6a");
      ("hybrid", Scenario.Hybrid { handoff_bytes = 10_000 },
        "a88aad7cf844c3b143db63731776b940" );
    ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_workload"
    [
      ( "traffic-matrix",
        [
          Alcotest.test_case "permutation derangement" `Quick test_permutation_is_derangement;
          Alcotest.test_case "permutation stable" `Quick test_permutation_stable;
          Alcotest.test_case "stride" `Quick test_stride;
          Alcotest.test_case "stride self rejected" `Quick test_stride_self_rejected;
          Alcotest.test_case "random never self" `Quick test_random_never_self;
          Alcotest.test_case "hotspot" `Quick test_hotspot_senders_hit_targets;
          Alcotest.test_case "kind printing" `Quick test_kind_printing;
          qt prop_permutation_all_sizes;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "tcp completes" `Slow test_scenario_tcp_completes;
          Alcotest.test_case "sorted records" `Slow test_scenario_records_sorted_and_ids;
          Alcotest.test_case "deterministic" `Slow test_scenario_deterministic;
          Alcotest.test_case "seed sensitivity" `Slow test_scenario_seed_changes_result;
          Alcotest.test_case "mptcp" `Slow test_scenario_mptcp;
          Alcotest.test_case "mmptcp" `Slow test_scenario_mmptcp;
          Alcotest.test_case "vl2 topology" `Slow test_scenario_vl2_topology;
          Alcotest.test_case "multihomed topology" `Slow test_scenario_multihomed_topology;
          Alcotest.test_case "flow metadata" `Slow test_scenario_flow_sizes;
          Alcotest.test_case "long goodput" `Slow test_scenario_long_goodput_positive;
          Alcotest.test_case "protocol names" `Quick test_protocol_names;
        ] );
      ( "ending",
        [
          Alcotest.test_case "ends on the last close" `Slow test_ends_on_last_close;
          Alcotest.test_case "zero shorts reach the horizon" `Slow
            test_zero_shorts_reach_horizon;
          Alcotest.test_case "probe closing sample" `Slow test_probe_closing_sample;
          Alcotest.test_case "hybrid short closes after both stages" `Quick
            test_hybrid_short_holds_run;
        ] );
      ( "golden",
        [
          Alcotest.test_case "packet-path outcomes unchanged (tiny fattree)"
            `Slow test_golden_packet_outcomes;
          Alcotest.test_case "same-instant arrival order unchanged" `Quick
            test_golden_tied_arrivals;
        ] );
    ]

(* Tests for the observability stack: the metrics registry, the
   virtual-time probe sampler, capture rendering, and the guarantees
   the rest of the repo relies on — a disabled registry is inert, an
   enabled probe does not perturb simulation results, and the sampler
   timer does not leak pending events. That probe artifacts are
   byte-identical at any job count is checked in test_runner, whose
   binary doubles as the worker process. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Probe = Sim_engine.Probe
module Metrics = Sim_obs.Metrics
module Series = Sim_obs.Series
module Capture = Sim_obs.Capture
module Pktqueue = Sim_net.Pktqueue
module Layer = Sim_net.Layer
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Flow = Sim_tcp.Flow
module Scenario = Sim_workload.Scenario
module Scale = Sim_experiments.Scale

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_disabled_registry_inert () =
  let m = Metrics.create () in
  check_bool "inactive" false (Metrics.active m);
  check_bool "no conn wanted" false (Metrics.want_conn m 1);
  Metrics.register m ~component:"x" ~id:"a" ~name:"g" ~units:"u" (fun () -> 1.);
  Metrics.emit m ~kind:"boom" ();
  check_int "no gauges" 0 (Metrics.gauge_count m);
  check_int "no events" 0 (Array.length (Metrics.events m));
  check_bool "no histogram" true
    (Metrics.histogram m ~component:"x" ~id:"a" ~name:"h" ~units:"u" ~lo:0.
       ~hi:1. ~buckets:4
    = None)

let test_registration_order () =
  let m = Metrics.create () in
  Metrics.enable m ~clock_ns:(fun () -> 0) ();
  List.iter
    (fun n ->
      Metrics.register m ~component:"c" ~id:"i" ~name:n ~units:"u" (fun () ->
          0.))
    [ "first"; "second"; "third" ];
  let names =
    Array.to_list (Metrics.gauges m)
    |> List.map (fun ((g : Metrics.meta), _) -> g.name)
  in
  Alcotest.(check (list string))
    "gauges in registration order"
    [ "first"; "second"; "third" ]
    names

let test_want_conn_filter () =
  let m = Metrics.create () in
  Metrics.enable m ~conns:[ 2; 5 ] ~clock_ns:(fun () -> 0) ();
  check_bool "conn 2 wanted" true (Metrics.want_conn m 2);
  check_bool "conn 3 filtered" false (Metrics.want_conn m 3);
  Metrics.emit m ~kind:"a" ~conn:3 ();
  Metrics.emit m ~kind:"b" ~conn:5 ();
  Metrics.emit m ~kind:"c" ();  (* not connection-scoped: always kept *)
  let kinds =
    Array.to_list (Metrics.events m)
    |> List.map (fun (e : Metrics.event) -> e.kind)
  in
  Alcotest.(check (list string)) "filtered events" [ "b"; "c" ] kinds

(* ------------------------------------------------------------------ *)
(* Sampler *)

let test_sampler_ticks_and_rows () =
  let sched = Scheduler.create () in
  let p = Probe.create sched ~interval:(Time.of_ms 10.) in
  let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched) in
  let counter = ref 0 in
  Metrics.register m ~component:"test" ~id:"t" ~name:"count" ~units:"n"
    (fun () -> float_of_int !counter);
  Scheduler.Event.schedule_at
    (Scheduler.Event.pool sched ~fire:(fun f -> f ()))
    (Time.of_ms 25.)
    (fun () -> counter := 7);
  Probe.start p;
  Scheduler.run ~until:(Time.of_ms 100.) sched;
  let c = Probe.capture p in
  check_int "10 ticks over 100ms" 10 (Probe.ticks p);
  (* 4 scheduler self-profiling gauges + ours, one row each per tick. *)
  check_int "rows = ticks * gauges" (10 * 5) (Array.length c.Capture.samples);
  let our_rows =
    Array.to_list c.Capture.samples
    |> List.filter (fun (_, i, _) ->
           c.Capture.gauges.(i).Metrics.component = "test")
  in
  check_int "one row per tick" 10 (List.length our_rows);
  let at ns =
    List.find_map
      (fun (t, _, v) -> if t = ns then Some v else None)
      our_rows
  in
  Alcotest.(check (option (float 0.)))
    "before the step" (Some 0.)
    (at 10_000_000);
  Alcotest.(check (option (float 0.)))
    "after the step" (Some 7.)
    (at 30_000_000)

let test_probe_stop_releases_timer () =
  let sched = Scheduler.create () in
  let p = Probe.create sched ~interval:(Time.of_ms 10.) in
  Probe.start p;
  Scheduler.run ~until:(Time.of_ms 50.) sched;
  (* The re-arming sampler is still pending at the horizon... *)
  check_bool "timer armed at horizon" true (Scheduler.pending_events sched > 0);
  (* ...and capture (which implies stop) must release it: a finished
     simulation reports a drained queue. *)
  ignore (Probe.capture p : Capture.t);
  check_int "no pending events after capture" 0
    (Scheduler.pending_events sched)

let test_probe_rejects_bad_interval () =
  let sched = Scheduler.create () in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Probe.create: interval must be positive") (fun () ->
      ignore (Probe.create sched ~interval:Time.zero))

(* ------------------------------------------------------------------ *)
(* Capture rendering *)

let test_events_jsonl_golden () =
  let m = Metrics.create () in
  let now = ref 0 in
  Metrics.enable m ~clock_ns:(fun () -> !now) ();
  now := 1500;
  Metrics.emit m ~kind:"rto_fired" ~conn:3 ~subflow:1
    ~info:[ ("backoff", "2") ]
    ();
  now := 2500;
  Metrics.emit m ~kind:"note" ~info:[ ("msg", "a \"quoted\"\nline") ] ();
  let c = Capture.of_series (Series.create m) in
  check_string "jsonl"
    ("{\"t_ns\":1500,\"kind\":\"rto_fired\",\"conn\":3,\"subflow\":1,\"backoff\":\"2\"}\n"
   ^ "{\"t_ns\":2500,\"kind\":\"note\",\"msg\":\"a \\\"quoted\\\"\\nline\"}\n")
    (Sim_experiments.Probe_sink.events_jsonl c)

let test_histogram_through_registry () =
  let m = Metrics.create () in
  Metrics.enable m ~clock_ns:(fun () -> 0) ();
  (match
     Metrics.histogram m ~component:"c" ~id:"i" ~name:"h" ~units:"u" ~lo:0.
       ~hi:10. ~buckets:5
   with
  | None -> Alcotest.fail "expected a histogram"
  | Some h ->
    Sim_stats.Histogram.add h 3.;
    Sim_stats.Histogram.add h 42.);
  let c = Capture.of_series (Series.create m) in
  check_int "one histogram" 1 (Array.length c.Capture.hists);
  let h = c.Capture.hists.(0) in
  check_int "bucket 1" 1 h.Capture.bucket_counts.(1);
  check_int "overflow" 1 h.Capture.bucket_counts.(5);
  check_bool "not empty" false (Capture.is_empty c)

(* ------------------------------------------------------------------ *)
(* Queue instrumentation *)

let mk_pkt ctx ~conn =
  Sim_net.Packet.make ~ctx ~src:(Sim_net.Addr.of_int 0)
    ~dst:(Sim_net.Addr.of_int 1) ~conn ~subflow:0 ~src_port:1000
    ~dst_port:2000 ~seq:0 ~ack_seq:0 ~len:1000 ~bits:Sim_net.Packet.data_bits

let test_drop_hooks_run_in_install_order () =
  let ctx = Sim_engine.Sim_ctx.create () in
  let q =
    Pktqueue.create ~ctx ~capacity:1 ~layer:Layer.Host_layer ()
  in
  let log = ref [] in
  Pktqueue.add_drop_hook q (fun _ -> log := "first" :: !log);
  Pktqueue.add_drop_hook q (fun _ -> log := "second" :: !log);
  check_bool "accepted" true (Pktqueue.enqueue q (mk_pkt ctx ~conn:1));
  check_bool "dropped" false (Pktqueue.enqueue q (mk_pkt ctx ~conn:1));
  Alcotest.(check (list string))
    "both hooks, installation order" [ "first"; "second" ]
    (List.rev !log)

let test_queue_gauges_and_drop_events () =
  let ctx = Sim_engine.Sim_ctx.create () in
  let m = Sim_engine.Sim_ctx.metrics ctx in
  Metrics.enable m ~clock_ns:(fun () -> 123) ();
  let q = Pktqueue.create ~ctx ~capacity:1 ~layer:Layer.Edge_layer () in
  ignore (Pktqueue.enqueue q (mk_pkt ctx ~conn:4));
  ignore (Pktqueue.enqueue q (mk_pkt ctx ~conn:4));
  let read name =
    Array.to_list (Metrics.gauges m)
    |> List.find_map (fun ((g : Metrics.meta), r) ->
           if g.component = "pktqueue" && g.name = name then Some (r ())
           else None)
  in
  Alcotest.(check (option (float 0.))) "depth" (Some 1.) (read "depth_pkts");
  Alcotest.(check (option (float 0.))) "drops" (Some 1.) (read "drops");
  let evs = Metrics.events m in
  check_int "one queue_drop event" 1 (Array.length evs);
  check_string "kind" "queue_drop" evs.(0).Metrics.kind;
  check_int "conn attributed" 4 evs.(0).Metrics.conn;
  check_int "stamped by the clock" 123 evs.(0).Metrics.t_ns

(* ------------------------------------------------------------------ *)
(* Co-installation of drop observers *)

(* The metrics drop tap and another drop observer must see the same
   drops without stealing each other's hook (the failure mode of the
   old single-slot set_drop_hook). The second observer counts the
   flow's drops on every queue of the topology. *)
let observed_run ~probe () =
  let sched = Scheduler.create () in
  let p =
    if probe then Some (Probe.create sched ~interval:(Time.of_ms 10.))
    else None
  in
  Option.iter Probe.start p;
  let spec = { Topology.default_link_spec with queue_capacity = 5 } in
  let net = Dumbbell.direct ~sched ~spec () in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:700_000 ()
  in
  let drops = ref 0 in
  Array.iter
    (fun link ->
      Pktqueue.add_drop_hook (Sim_net.Link.queue link) (fun pkt ->
          if pkt.Sim_net.Packet.conn = Flow.conn f then incr drops))
    net.Topology.links;
  Scheduler.run ~until:(Time.of_sec 30.) sched;
  check_bool "flow complete" true (Flow.is_complete f);
  (!drops, Flow.fct f, Option.map Probe.capture p)

let test_drop_observers_unaffected_by_probe () =
  let bare, bare_fct, _ = observed_run ~probe:false () in
  let probed, probed_fct, capture = observed_run ~probe:true () in
  check_bool "drops observed" true (bare > 0);
  check_int "same drops with metrics tap installed" bare probed;
  check_bool "same fct" true (bare_fct = probed_fct);
  match capture with
  | None -> Alcotest.fail "expected a capture"
  | Some c ->
    let drop_events =
      Array.to_list c.Capture.events
      |> List.filter (fun (e : Metrics.event) -> e.kind = "queue_drop")
    in
    check_int "metrics saw every drop too" probed (List.length drop_events)

(* ------------------------------------------------------------------ *)
(* End-to-end scenario guarantees *)

let obs_scale ~seed ~obs =
  { Scale.k = 4; oversub = 2; flows = 10; rate = 50.; seed; horizon_s = 1.;
    model = Scenario.Packet; obs }

let scenario_cfg ~seed ~obs =
  Scale.scenario_config (obs_scale ~seed ~obs)
    ~protocol:(Scenario.Mmptcp_proto Mmptcp.Strategy.default)

let probe_obs =
  {
    Scenario.default_obs with
    Scenario.probe_interval = Some (Time.of_ms 50.);
  }

let flow_fingerprint (r : Scenario.result) =
  Array.to_list r.Scenario.shorts
  |> List.map (fun f ->
         Printf.sprintf "%d>%d fct=%d rtos=%d" f.Scenario.src f.Scenario.dst
           (match f.Scenario.fct with Some t -> Time.to_ns t | None -> -1)
           f.Scenario.rtos)

let test_probe_does_not_perturb () =
  let bare =
    Scenario.run (scenario_cfg ~seed:11 ~obs:Scenario.default_obs)
  in
  let probed = Scenario.run (scenario_cfg ~seed:11 ~obs:probe_obs) in
  check_bool "probed run captured something" true
    (match probed.Scenario.obs with
    | Some c -> Array.length c.Capture.samples > 0
    | None -> false);
  Alcotest.(check (list string))
    "flow outcomes identical with probing on"
    (flow_fingerprint bare) (flow_fingerprint probed)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "disabled registry inert" `Quick
            test_disabled_registry_inert;
          Alcotest.test_case "registration order" `Quick
            test_registration_order;
          Alcotest.test_case "want_conn filter" `Quick test_want_conn_filter;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "ticks and rows" `Quick
            test_sampler_ticks_and_rows;
          Alcotest.test_case "stop releases timer" `Quick
            test_probe_stop_releases_timer;
          Alcotest.test_case "bad interval rejected" `Quick
            test_probe_rejects_bad_interval;
        ] );
      ( "capture",
        [
          Alcotest.test_case "events jsonl golden" `Quick
            test_events_jsonl_golden;
          Alcotest.test_case "histogram dump" `Quick
            test_histogram_through_registry;
        ] );
      ( "queue",
        [
          Alcotest.test_case "drop hooks in install order" `Quick
            test_drop_hooks_run_in_install_order;
          Alcotest.test_case "gauges and drop events" `Quick
            test_queue_gauges_and_drop_events;
        ] );
      ( "observers",
        [
          Alcotest.test_case "drop observers unaffected by probe" `Quick
            test_drop_observers_unaffected_by_probe;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "probe does not perturb" `Quick
            test_probe_does_not_perturb;
        ] );
    ]

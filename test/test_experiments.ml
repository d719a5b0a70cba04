(* Tests for the experiment-harness helpers (scales, reporting,
   scatter decimation, fairness index). The experiments themselves are
   exercised end-to-end by the bench harness and integration tests. *)

module Time = Sim_engine.Sim_time
module Scenario = Sim_workload.Scenario
module Scale = Sim_experiments.Scale
module Report = Sim_experiments.Report
module Fig1bc = Sim_experiments.Fig1bc
module Ext_coexist = Sim_experiments.Ext_coexist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_scale_presets () =
  check_int "small k" 4 Scale.small.Scale.k;
  check_int "full k (paper)" 8 Scale.full.Scale.k;
  check_int "full oversub (paper 4:1)" 4 Scale.full.Scale.oversub;
  (* k=8 oversub=4 is the paper's 512 servers. *)
  check_int "full host count" 512
    (Sim_net.Fattree.host_count
       (Scenario.paper_fattree ~k:Scale.full.Scale.k ~oversub:Scale.full.Scale.oversub ()))

let test_scenario_config_carries_scale () =
  let scale = { Scale.small with Scale.flows = 123; seed = 55 } in
  let cfg = Scale.scenario_config scale ~protocol:Scenario.Tcp_proto in
  check_int "flows" 123 cfg.Scenario.short_flows;
  check_int "seed" 55 cfg.Scenario.seed;
  check_int "short size is the paper's 70KB" 70_000 cfg.Scenario.short_size;
  check_bool "permutation tm" true
    (cfg.Scenario.tm = Sim_workload.Traffic_matrix.Permutation)

let tiny_result () =
  let cfg =
    {
      (Scale.scenario_config
         { Scale.k = 4; oversub = 1; flows = 20; rate = 50.; seed = 5; horizon_s = 3.;
           model = Scenario.Packet; obs = Scenario.default_obs }
         ~protocol:Scenario.Tcp_proto)
      with
      Scenario.topo = Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:1 ());
    }
  in
  Scenario.run cfg

let test_fct_stats_consistent () =
  let r = tiny_result () in
  let s = Report.fct_stats r in
  check_int "completed + incomplete = scheduled"
    (Array.length r.Scenario.shorts)
    (s.Report.completed + s.Report.incomplete);
  check_bool "mean within bounds" true
    (s.Report.mean_ms > 0. && s.Report.mean_ms <= s.Report.max_ms);
  check_bool "within_100ms is a fraction" true
    (s.Report.within_100ms >= 0. && s.Report.within_100ms <= 1.)

(* Every short stalled: none completed, one of them on an RTO. The
   RTO-hit count covers incomplete shorts too, so it must not drop to
   0 just because no FCT exists. *)
let test_fct_stats_all_incomplete () =
  let short id rtos =
    {
      Scenario.id;
      src = 0;
      dst = 1;
      flow_size = 70_000;
      is_long = false;
      start = Time.zero;
      fct = None;
      rtos;
      fast_rtxs = 0;
      bytes_received = 0;
    }
  in
  let r =
    {
      Scenario.config = Scenario.default_config;
      shorts = [| short 0 0; short 1 2; short 2 0 |];
      longs = [||];
      net = { Scenario.ns_core_loss = 0.; ns_agg_loss = 0.; ns_core_utilisation = 0. };
      events = 0;
      duration = Time.of_sec 1.;
      obs = None;
      ledger = None;
    }
  in
  let s = Report.fct_stats r in
  check_int "completed" 0 s.Report.completed;
  check_int "incomplete" 3 s.Report.incomplete;
  check_int "rto flows" (Scenario.shorts_with_rto r) s.Report.flows_with_rto;
  check_int "rto flows counts the stalled short" 1 s.Report.flows_with_rto;
  check_bool "no mean" true (Float.is_nan s.Report.mean_ms)

let test_scatter_decimation () =
  let r = tiny_result () in
  let series = Fig1bc.scatter r ~max_series:5 in
  check_bool "series non-empty" true (series <> []);
  check_bool "bounded" true (List.length series <= 5 + Array.length r.Scenario.shorts);
  (* Sorted by flow id. *)
  let ids = List.map fst series in
  check_bool "sorted" true (List.sort compare ids = ids);
  (* Every straggler (>500ms) must be present. *)
  let straggler_count =
    Array.to_list r.Scenario.shorts
    |> List.filter (fun f ->
        match f.Scenario.fct with Some t -> Time.to_ms t > 500. | None -> false)
    |> List.length
  in
  let series_stragglers = List.filter (fun (_, ms) -> ms > 500.) series in
  check_int "stragglers kept" straggler_count (List.length series_stragglers)

let test_jain_index () =
  check_float "equal shares" 1. (Ext_coexist.jain_index [| 5.; 5.; 5. |]);
  check_float "empty" 1. (Ext_coexist.jain_index [||]);
  check_float "single" 1. (Ext_coexist.jain_index [| 42. |]);
  check_float "total starvation" (1. /. 3.)
    (Ext_coexist.jain_index [| 9.; 0.; 0. |]);
  let mixed = Ext_coexist.jain_index [| 8.; 2.; 2. |] in
  check_bool "between" true (mixed > 1. /. 3. && mixed < 1.)

let prop_jain_bounds =
  QCheck.Test.make ~name:"jain index in (0,1]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 10) (float_bound_inclusive 100.))
    (fun l ->
      let v = Ext_coexist.jain_index (Array.of_list l) in
      v > 0. && v <= 1. +. 1e-9)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_experiments"
    [
      ( "scale",
        [
          Alcotest.test_case "presets" `Quick test_scale_presets;
          Alcotest.test_case "config carries scale" `Quick test_scenario_config_carries_scale;
        ] );
      ( "report",
        [
          Alcotest.test_case "fct stats consistent" `Slow test_fct_stats_consistent;
          Alcotest.test_case "fct stats with no completed short" `Quick
            test_fct_stats_all_incomplete;
        ] );
      ( "fig1bc",
        [ Alcotest.test_case "scatter decimation" `Slow test_scatter_decimation ] );
      ( "coexist",
        [ Alcotest.test_case "jain index" `Quick test_jain_index; qt prop_jain_bounds ] );
    ]

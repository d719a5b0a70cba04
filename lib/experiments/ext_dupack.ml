module Scenario = Sim_workload.Scenario
module Strategy = Mmptcp.Strategy

let variants =
  [
    ("static-3 (std TCP)", Strategy.Static 3);
    ("topology-aware", Strategy.Topology_aware);
    ("adaptive (RR-TCP)", Strategy.Adaptive { initial = 3; cap = 64 });
    ("static-1000 (no FR)", Strategy.Static 1_000);
  ]

let fast_rtxs r =
  Array.fold_left (fun a f -> a + f.Scenario.fast_rtxs) 0 r.Scenario.shorts

let columns =
  (Report.label "threshold" fst :: Report.fct ())
  @ [
      Sink.column ~heading:"fast-rtx(total)" "fast_rtx_total" Sink.int (fun r ->
          fast_rtxs r.Report.result);
    ]

let render scale pairs =
  Report.header "E6: scatter-phase dup-ACK threshold ablation";
  Report.workload scale;
  [ Report.table (Sink.table ~name:"ext-dupack" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-dupack"
    ~doc:"E6: dup-ACK threshold ablation."
    ~points:(fun _scale -> variants)
    ~point_label:fst
    ~config:(fun scale (_, dupack) ->
      let strategy = { Strategy.default with Strategy.dupack } in
      Scale.scenario_config scale ~protocol:(Scenario.Mmptcp_proto strategy))
    ~render

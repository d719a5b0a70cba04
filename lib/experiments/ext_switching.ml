module Scenario = Sim_workload.Scenario
module Strategy = Mmptcp.Strategy

let strategies =
  [
    ("volume-35KB", Strategy.Data_volume 35_000);
    ("volume-100KB", Strategy.Data_volume 100_000);
    ("volume-500KB", Strategy.Data_volume 500_000);
    ("volume-2MB", Strategy.Data_volume 2_000_000);
    ("congestion-event", Strategy.Congestion_event);
    ("never (pure PS)", Strategy.Never);
  ]

let columns =
  [
    Report.label "switching" fst;
    Report.mean ~heading:"short mean(ms)" ();
    Report.sd ~heading:"short sd(ms)" ();
    Report.rto_flows ();
    Report.long_goodput ();
  ]

let render scale pairs =
  Report.header "E1: MMPTCP phase-switching strategies";
  Report.workload scale;
  [ Report.table (Sink.table ~name:"ext-switching" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-switching"
    ~doc:"E1: phase-switching strategies."
    ~points:(fun _scale -> strategies)
    ~point_label:fst
    ~config:(fun scale (_, switch) ->
      let strategy = { Strategy.default with Strategy.switch } in
      Scale.scenario_config scale ~protocol:(Scenario.Mmptcp_proto strategy))
    ~render

module Scenario = Sim_workload.Scenario

let pct heading key f =
  Sink.column ~heading ~text:Sim_stats.Table.pct key Sink.float (fun r ->
      f r.Report.result)

let columns =
  [
    Report.label "protocol" fst;
    Report.mean ~heading:"short mean(ms)" ();
    Report.sd ~heading:"short sd(ms)" ();
    Report.rto_flows ();
    pct "core loss" "core_loss" Scenario.core_loss;
    pct "agg loss" "agg_loss" Scenario.agg_loss;
    Report.long_goodput ();
    pct "core util" "core_utilisation" Scenario.core_utilisation;
  ]

let render scale pairs =
  Report.header
    "Table 1: MMPTCP vs MPTCP on the paper workload (identical seed)";
  Report.workload scale;
  Report.printf
    "paper reports: MMPTCP 116ms (sd 101) vs MPTCP 126ms (sd 425); loss at\n\
     core/agg slightly lower for MMPTCP; equal long-flow throughput and\n\
     utilisation.\n";
  [ Report.table (Sink.table ~name:"table1" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"table1"
    ~doc:"Text claims: MMPTCP vs MPTCP summary table."
    ~points:(fun _scale -> Scale.protocols)
    ~point_label:fst
    ~config:(fun scale (_, protocol) -> Scale.scenario_config scale ~protocol)
    ~render

module Scenario = Sim_workload.Scenario
module Traffic_matrix = Sim_workload.Traffic_matrix

let matrices hosts =
  [
    ("permutation", Traffic_matrix.Permutation);
    ("random", Traffic_matrix.Random);
    ("stride", Traffic_matrix.Stride (max 1 (hosts / 2)));
  ]

let points scale =
  let hosts =
    Sim_net.Fattree.host_count
      (Scenario.paper_fattree ~k:scale.Scale.k ~oversub:scale.Scale.oversub ())
  in
  Scale.versus (matrices hosts)

let columns = Report.versus "matrix" @ Report.fct ()

let render scale pairs =
  Report.header "E8: traffic matrices";
  Report.workload scale;
  [ Report.table (Sink.table ~name:"ext-matrices" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-matrices" ~doc:"E8: traffic matrices." ~points
    ~point_label:Scale.versus_label
    ~config:(fun scale (_, tm, _, protocol) ->
      { (Scale.scenario_config scale ~protocol) with Scenario.tm })
    ~render

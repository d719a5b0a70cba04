module Scenario = Sim_workload.Scenario
module Traffic_matrix = Sim_workload.Traffic_matrix

let tm = Traffic_matrix.Hotspot { targets = 4; fraction = 0.5 }

let columns =
  (Report.label "protocol" fst :: Report.fct ()) @ [ Report.incomplete () ]

let render scale pairs =
  Report.header "E3: hotspot traffic matrices";
  Report.workload ~note:", 4 hot targets, 50% hot senders" scale;
  [ Report.table (Sink.table ~name:"ext-hotspot" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-hotspot" ~doc:"E3: hotspot traffic matrices."
    ~points:(fun _scale -> ("tcp", Scenario.Tcp_proto) :: Scale.protocols)
    ~point_label:fst
    ~config:(fun scale (_, protocol) ->
      { (Scale.scenario_config scale ~protocol) with Scenario.tm })
    ~render

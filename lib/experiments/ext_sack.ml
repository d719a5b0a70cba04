module Scenario = Sim_workload.Scenario

let columns = Report.versus "recovery" @ Report.fct ()

let render scale pairs =
  Report.header "E9: NewReno vs SACK loss recovery (extension)";
  Report.workload scale;
  [ Report.table (Sink.table ~name:"ext-sack" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-sack"
    ~doc:"E9: NewReno vs SACK loss recovery."
    ~points:(fun _scale -> Scale.versus [ ("newreno", false); ("sack", true) ])
    ~point_label:Scale.versus_label
    ~config:(fun scale (_, sack, _, protocol) ->
      let base = Scale.scenario_config scale ~protocol in
      {
        base with
        Scenario.params = { base.Scenario.params with Sim_tcp.Tcp_params.sack };
      })
    ~render

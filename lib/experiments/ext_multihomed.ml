module Scenario = Sim_workload.Scenario

let multihomed_topo scale =
  Scenario.Multihomed_topo
    {
      Sim_net.Multihomed.k = scale.Scale.k;
      oversub = scale.Scale.oversub;
      host_spec = Scenario.paper_link_spec;
      fabric_spec = Scenario.paper_link_spec;
    }

let points scale =
  Scale.versus
    [
      ( "fattree",
        Scenario.Fattree_topo
          (Scenario.paper_fattree ~k:scale.Scale.k ~oversub:scale.Scale.oversub ()) );
      ("dual-homed", multihomed_topo scale);
    ]

let columns = Report.versus "topology" @ Report.fct ()

let render scale pairs =
  Report.header "E4: single-homed vs dual-homed FatTree";
  Report.workload scale;
  [ Report.table (Sink.table ~name:"ext-multihomed" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-multihomed" ~doc:"E4: dual-homed FatTree."
    ~points
    ~point_label:Scale.versus_label
    ~config:(fun scale (_, topo, _, protocol) ->
      { (Scale.scenario_config scale ~protocol) with Scenario.topo })
    ~render

module Scenario = Sim_workload.Scenario

(* A VL2 Clos with the same host count as the FatTree at this scale:
   k^3/4 * oversub hosts spread over ToRs of the same radix as the
   FatTree edge switches. *)
let vl2_params scale =
  let hosts = Sim_net.Fattree.host_count (Scenario.paper_fattree ~k:scale.Scale.k ~oversub:scale.Scale.oversub ()) in
  let hosts_per_tor = scale.Scale.k / 2 * scale.Scale.oversub in
  {
    Sim_net.Vl2.aggs = scale.Scale.k;
    intermediates = scale.Scale.k / 2;
    tors = hosts / hosts_per_tor;
    hosts_per_tor;
    host_spec = Scenario.paper_link_spec;
    fabric_spec = Scenario.paper_link_spec;
  }

let points scale =
  Scale.versus
    [
      ( "fattree",
        Scenario.Fattree_topo
          (Scenario.paper_fattree ~k:scale.Scale.k ~oversub:scale.Scale.oversub ()) );
      ("vl2", Scenario.Vl2_topo (vl2_params scale));
    ]

let columns = Report.versus "topology" @ Report.fct ()

let render scale pairs =
  Report.header "E7: FatTree vs VL2-style Clos, same workload";
  Report.workload scale;
  [ Report.table (Sink.table ~name:"ext-topologies" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-topologies"
    ~doc:"E7: FatTree vs VL2-style Clos." ~points
    ~point_label:Scale.versus_label
    ~config:(fun scale (_, topo, _, protocol) ->
      { (Scale.scenario_config scale ~protocol) with Scenario.topo })
    ~render

module Scenario = Sim_workload.Scenario

let configs ?(lo = 1) ?(hi = 9) scale =
  List.init
    (max 0 (hi - lo + 1))
    (fun i ->
      let n = lo + i in
      ( n,
        Scale.scenario_config scale
          ~protocol:(Scenario.Mptcp_proto { subflows = n; coupled = true }) ))

let columns =
  Sink.column ~heading:"#subflows" "subflows" Sink.int (fun r -> fst r.Report.point)
  :: Report.fct ~sd_heading:"stddev(ms)" ()
  @ [ Report.incomplete () ]

let render scale pairs =
  Report.header "Figure 1(a): MPTCP short-flow FCT vs number of subflows";
  Report.workload scale;
  let rows = Report.rows pairs in
  let t = Report.table (Sink.table ~name:"fig1a" ~columns rows) in
  Report.sub_header "embedded panel (mean only)";
  List.iter
    (fun r ->
      Report.printf "  %d subflows: %6.1f ms\n" (fst r.Report.point)
        r.Report.fct.Report.mean_ms)
    rows;
  [ t ]

let experiment =
  Experiment.scenario ~name:"fig1a"
    ~doc:"Figure 1(a): MPTCP short-flow FCT vs subflow count."
    ~points:(fun scale -> configs scale)
    ~point_label:(fun (n, _) -> Printf.sprintf "subflows=%d" n)
    ~config:(fun _scale (_, cfg) -> cfg)
    ~render

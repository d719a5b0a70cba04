let rates = [ 10.; 25.; 50.; 100. ]

let columns =
  Sink.column ~heading:"rate(flows/s/host)" ~text:(Printf.sprintf "%.0f") "rate"
    Sink.float (fun r ->
      let _, rate, _, _ = r.Report.point in
      rate)
  :: Report.label "protocol" (fun (_, _, pname, _) -> pname)
  :: Report.fct ()

let render scale pairs =
  Report.header "E2: effect of network load (short-flow arrival rate)";
  Report.workload ~note:" (rate swept)" scale;
  [ Report.table (Sink.table ~name:"ext-load" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-load" ~doc:"E2: network-load sweep."
    ~points:(fun _scale ->
      Scale.versus (List.map (fun rate -> (Printf.sprintf "%.0f" rate, rate)) rates))
    ~point_label:(fun p -> "rate=" ^ Scale.versus_label p)
    ~config:(fun scale (_, rate, _, protocol) ->
      Scale.scenario_config { scale with Scale.rate } ~protocol)
    ~render

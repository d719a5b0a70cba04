module Time = Sim_engine.Sim_time
module Scenario = Sim_workload.Scenario
module Histogram = Sim_stats.Histogram

let scatter r ~max_series =
  let all =
    Array.to_list r.Scenario.shorts
    |> List.filter_map (fun f ->
        match f.Scenario.fct with
        | Some t -> Some (f.Scenario.id, Time.to_ms t)
        | None -> None)
  in
  let stragglers = List.filter (fun (_, ms) -> ms > 500.) all in
  let normal = List.filter (fun (_, ms) -> ms <= 500.) all in
  let stride = max 1 (List.length normal / max 1 max_series) in
  let sampled =
    List.filteri (fun i _ -> i mod stride = 0) normal
  in
  List.sort compare (stragglers @ sampled)

let render_one ~title scale r =
  Report.header title;
  Report.workload scale;
  let s = Report.fct_stats r in
  Report.printf
    "shorts: %d completed, %d incomplete | mean=%.1fms sd=%.1fms p50=%.1fms p99=%.1fms max=%.1fms\n"
    s.Report.completed s.Report.incomplete s.Report.mean_ms s.Report.sd_ms
    s.Report.p50_ms s.Report.p99_ms s.Report.max_ms;
  Report.printf "flows with >=1 RTO: %d | completed within 100ms: %.1f%%\n"
    s.Report.flows_with_rto
    (100. *. s.Report.within_100ms);
  Report.sub_header "FCT histogram (ms)";
  let h = Histogram.create ~lo:0. ~hi:1000. ~buckets:10 in
  Array.iter (fun v -> Histogram.add h v) (Scenario.short_fcts_ms r);
  Report.out (Histogram.render h);
  Report.sub_header "scatter series: flow-id fct-ms (stragglers + sample)";
  List.iter
    (fun (id, ms) -> Report.printf "  %6d %9.1f\n" id ms)
    (scatter r ~max_series:40)

(* The per-flow series the paper's scatter plots are drawn from. *)
let flow_table ~tag r =
  let completed =
    Array.to_list r.Scenario.shorts
    |> List.filter_map (fun f ->
        match f.Scenario.fct with
        | Some t -> Some (f.Scenario.id, Time.to_ms t, f.Scenario.rtos)
        | None -> None)
  in
  Sink.table ~name:tag
    ~columns:
      [
        Sink.column "flow_id" Sink.int (fun (id, _, _) -> id);
        Sink.column "fct_ms" Sink.float (fun (_, ms, _) -> ms);
        Sink.column "rtos" Sink.int (fun (_, _, rtos) -> rtos);
      ]
    completed

let make ~tag ~title ~doc ~protocol =
  Experiment.scenario ~name:tag ~doc
    ~points:(fun _scale -> [ () ])
    ~point_label:(fun () -> "scenario")
    ~config:(fun scale () -> Scale.scenario_config scale ~protocol)
    ~render:(fun scale pairs ->
      match pairs with
      | [ ((), r) ] ->
        render_one ~title scale r;
        [ flow_table ~tag r ]
      | _ -> assert false)

let fig1b =
  make ~tag:"fig1b"
    ~title:"Figure 1(b): short-flow completion times, MPTCP (8 subflows)"
    ~doc:"Figure 1(b): per-flow FCT scatter, MPTCP 8 subflows."
    ~protocol:Scale.mptcp_8

let fig1c =
  make ~tag:"fig1c"
    ~title:"Figure 1(c): short-flow completion times, MMPTCP (PS + 8 subflows)"
    ~doc:"Figure 1(c): per-flow FCT scatter, MMPTCP."
    ~protocol:Scale.mmptcp

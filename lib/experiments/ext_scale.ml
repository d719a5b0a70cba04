(* Production-scale runs on the fluid model (ROADMAP item 2): a k=16
   FatTree (1024 hosts) carrying a short-flow budget 200x the packet
   experiments', against the usual 1/3 long background flows. At the
   default --small scale that is 100,000 Poisson shorts — far past
   what packet-level DES can sweep — and the fluid engine completes it
   in less wall-clock than a single packet-level fig1a point sweep.

   The model is pinned to fluid: at this scale the packet stages of
   the other models are exactly the cost being avoided. The derived
   workload (k, flow count, horizon) is printed through Scale.pp and
   recorded per point in the manifest's labels, so artifacts record
   what actually ran rather than the command-line base scale. *)

module Scenario = Sim_workload.Scenario

let flow_factor = 200
let k = 16
let oversub = 4

(* The base scale with the fluid-scale overrides applied — this is
   what runs, renders and labels the points. *)
let derived scale =
  {
    scale with
    Scale.k;
    oversub;
    flows = scale.Scale.flows * flow_factor;
    model = Scenario.Fluid;
  }

let columns =
  [
    Report.label "protocol" (fun (name, _, _) -> name);
    Sink.column "flows" Sink.int (fun r ->
        let _, _, d = r.Report.point in
        d.Scale.flows);
    Report.mean ();
    Report.p50 ();
    Report.p99 ();
    Report.incomplete ();
    Report.long_goodput ~heading:"long-goodput(Mb/s)" ();
    Sink.column ~heading:"core-util" ~text:(Printf.sprintf "%.3f") "core_util"
      Sink.float (fun r -> Scenario.core_utilisation r.Report.result);
    Sink.column "events" Sink.int (fun r -> r.Report.result.Scenario.events);
  ]

let render scale pairs =
  Report.header "EXT: fluid-model scale sweep (k=16 FatTree, 200x short flows)";
  Report.workload (derived scale);
  [ Report.table (Sink.table ~name:"ext-scale" ~columns (Report.rows pairs)) ]

let experiment =
  Experiment.scenario ~name:"ext-scale"
    ~doc:"EXT: fluid-model k=16 FatTree at 200x short-flow scale."
    ~points:(fun scale ->
      List.map (fun (name, protocol) -> (name, protocol, derived scale)) Scale.protocols)
    ~point_label:(fun (name, _, d) ->
      Printf.sprintf "%s k=%d flows=%d horizon=%gs" name d.Scale.k
        d.Scale.flows d.Scale.horizon_s)
    ~config:(fun _scale (_, protocol, d) -> Scale.scenario_config d ~protocol)
    ~render

(* Cross-validation of the fluid and hybrid flow models against the
   packet-level reference: same scenario, three models, compare
   short-flow FCT statistics.

   The comparison scenarios are light-load by design (no long
   background flows, modest arrival rate): there the packet-level FCT
   is dominated by handshake + slow-start + serialisation, exactly the
   pipeline the fluid engine models analytically, so agreement within
   a few percent is the expected behaviour and deviation is a bug in
   the rate model. Under heavy congestion the fluid abstraction has no
   queueing delay or loss by construction and divergence is expected —
   that regime is what the hybrid model's packet stage is for (see
   DESIGN.md §4k). *)

module Scenario = Sim_workload.Scenario

let models = [ Scenario.Packet; Scenario.Fluid;
               Scenario.Hybrid { handoff_bytes = Scenario.default_handoff_bytes } ]

(* The two comparison scenarios from the issue: a tiny dumbbell under
   TCP and a k=8 permutation FatTree under MPTCP-8, plus the same
   FatTree under MMPTCP exercising the scatter-phase rate model. *)
let scenarios scale =
  let light cfg = { cfg with Scenario.long_fraction = 0. } in
  (* The dumbbell funnels every crossing flow through one 100 Mb/s
     link, so the base scale's arrival rate would overflow the
     50-packet queue and put RTO recovery — which the fluid model
     cannot represent — into the reference itself. Slow the Poisson
     process to ~0.1 bottleneck load and stretch the horizon to cover
     the arrival span. *)
  let pairs = 4 in
  let dumbbell_rate = scale.Scale.rate /. 16. in
  let dumbbell_horizon =
    (float_of_int scale.Scale.flows /. (float_of_int (2 * pairs) *. dumbbell_rate))
    +. 2.
  in
  [
    ( "dumbbell-tcp",
      light
        {
          (Scale.scenario_config scale ~protocol:Scenario.Tcp_proto) with
          Scenario.topo =
            Scenario.Dumbbell_topo
              { pairs; bottleneck = Scenario.paper_link_spec };
          short_rate = dumbbell_rate;
          horizon = Sim_engine.Sim_time.of_sec dumbbell_horizon;
        } );
  ]
  @ List.map
      (fun (name, protocol) ->
        ( name,
          light
            {
              (Scale.scenario_config scale ~protocol) with
              Scenario.topo =
                Scenario.Fattree_topo (Scenario.paper_fattree ~k:8 ~oversub:4 ());
            } ))
      [ ("fattree8-mptcp", Scale.mptcp_8); ("fattree8-mmptcp", Scale.mmptcp) ]

let points scale =
  List.concat_map
    (fun (name, cfg) ->
      List.map (fun m -> (name, m, { cfg with Scenario.model = m })) models)
    (scenarios scale)

let tolerance = 0.10

(* Relative deviation of [v] from reference [r]; 0 when both idle. *)
let rel v r = if r = 0. then (if v = 0. then 0. else infinity) else (v -. r) /. r

type row = {
  r_scenario : string;
  r_model : string;
  r_mean : float;
  r_p99 : float;
  r_dmean : float;  (* vs the packet row of the same scenario *)
  r_dp99 : float;
  r_ok : bool;
}

let rows pairs =
  let stats = List.map (fun ((s, m, _), r) -> (s, m, Report.fct_stats r)) pairs in
  let packet_ref scenario =
    List.find_map
      (fun (s, m, st) -> if s = scenario && m = Scenario.Packet then Some st else None)
      stats
  in
  List.map
    (fun (s, m, st) ->
      let p = Option.get (packet_ref s) in
      let dmean = rel st.Report.mean_ms p.Report.mean_ms in
      let dp99 = rel st.Report.p99_ms p.Report.p99_ms in
      {
        r_scenario = s;
        r_model = Scenario.model_name m;
        r_mean = st.Report.mean_ms;
        r_p99 = st.Report.p99_ms;
        r_dmean = dmean;
        r_dp99 = dp99;
        r_ok =
          (m = Scenario.Packet)
          || (Float.abs dmean <= tolerance && Float.abs dp99 <= tolerance);
      })
    stats

let pct heading key proj =
  Sink.column ~heading ~text:(fun v -> Printf.sprintf "%+.1f%%" (100. *. v)) key
    Sink.float proj

let columns =
  [
    Sink.column "scenario" Sink.str (fun r -> r.r_scenario);
    Sink.column "model" Sink.str (fun r -> r.r_model);
    Report.ms "mean(ms)" "mean_ms" (fun r -> r.r_mean);
    Report.ms "p99(ms)" "p99_ms" (fun r -> r.r_p99);
    pct "d-mean" "rel_mean" (fun r -> r.r_dmean);
    pct "d-p99" "rel_p99" (fun r -> r.r_dp99);
    Sink.column ~heading:"<=10%"
      ~text:(fun ok -> if ok then "ok" else "DIVERGES")
      "within_tolerance"
      (fun ok -> Sink.int (if ok then 1 else 0))
      (fun r -> r.r_ok);
  ]

let render scale pairs =
  Report.header
    "EXT: fluid/hybrid cross-validation against packet-level (short-flow FCT)";
  Report.workload scale;
  let t = Report.table (Sink.table ~name:"ext-fluid-xval" ~columns (rows pairs)) in
  Report.printf
    "deviations are vs the packet row of the same scenario; light-load \
     scenarios, where the fluid rate model is expected to track.\n";
  [ t ]

let experiment =
  Experiment.scenario ~name:"ext-fluid-xval"
    ~doc:"EXT: fluid/hybrid FCT cross-validation vs packet-level."
    ~points
    ~point_label:(fun (s, m, _) ->
      Printf.sprintf "%s/%s" s (Scenario.model_name m))
    ~config:(fun _scale (_, _, cfg) -> cfg)
    ~render

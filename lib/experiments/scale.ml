module Time = Sim_engine.Sim_time
module Scenario = Sim_workload.Scenario

type t = {
  k : int;
  oversub : int;
  flows : int;
  rate : float;
  seed : int;
  horizon_s : float;
  model : Scenario.model;
  obs : Scenario.obs_cfg;
}

(* Horizons are caps: a run ends once its last short flow has closed
   (Scenario.run), which at these rates is well before the horizon.
   The slack covers RTO-backoff stragglers. *)
let tiny =
  { k = 4; oversub = 2; flows = 40; rate = 50.; seed = 3; horizon_s = 2.;
    model = Scenario.Packet; obs = Scenario.default_obs }

let small =
  { k = 4; oversub = 4; flows = 500; rate = 25.; seed = 7; horizon_s = 8.;
    model = Scenario.Packet; obs = Scenario.default_obs }

let full =
  { k = 8; oversub = 4; flows = 20_000; rate = 25.; seed = 7; horizon_s = 30.;
    model = Scenario.Packet; obs = Scenario.default_obs }

let pp ppf t =
  Format.fprintf ppf
    "k=%d oversub=%d flows=%d rate=%.0f/s seed=%d horizon=%gs model=%s"
    t.k t.oversub t.flows t.rate t.seed t.horizon_s
    (Scenario.model_name t.model)

let scenario_config t ~protocol =
  {
    Scenario.default_config with
    Scenario.model = t.model;
    topo = Scenario.Fattree_topo (Scenario.paper_fattree ~k:t.k ~oversub:t.oversub ());
    protocol;
    seed = t.seed;
    short_flows = t.flows;
    short_rate = t.rate;
    horizon = Time.of_sec t.horizon_s;
    obs = t.obs;
  }

let mptcp_8 = Scenario.Mptcp_proto { subflows = 8; coupled = true }
let mmptcp = Scenario.Mmptcp_proto Mmptcp.Strategy.default
let protocols = [ ("mptcp-8", mptcp_8); ("mmptcp", mmptcp) ]

let versus variants =
  List.concat_map
    (fun (vname, v) ->
      List.map (fun (pname, protocol) -> (vname, v, pname, protocol)) protocols)
    variants

let versus_label (vname, _, pname, _) = vname ^ " " ^ pname

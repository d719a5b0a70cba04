(** Fluid flow-level model: flows as rate processes over shared link
    capacities ({!Sim_fluid.Engine}); analytic FCTs, no packets. Legs
    follow the forward paths {!Sim_net.Topology.path} enumerates from
    the switches' route tables, on any topology. *)

type net = {
  topo : Sim_net.Topology.t;
  engine : Sim_fluid.Engine.t;
}

include Flow_model.BACKEND with type net := net

val transport_plan :
  Flow_model.config ->
  net ->
  rng:Sim_engine.Rng.t ->
  src:int ->
  dst:int ->
  assume_switched:bool ->
  Sim_fluid.Engine.leg_spec array * Sim_fluid.Engine.switch_spec option
(** Legs (and MMPTCP's optional scatter→multipath switch) for one
    transfer under [cfg.protocol]. [assume_switched] starts MMPTCP
    directly in its multipath phase — the hybrid model passes the
    packet stage's exit phase. Shared with {!Model_hybrid}. *)

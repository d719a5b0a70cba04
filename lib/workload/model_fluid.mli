(** Fluid flow-level model: flows as rate processes over shared link
    capacities ({!Sim_fluid.Engine}); analytic FCTs, no packets. Legs
    follow the forward paths {!Sim_net.Topology.path} enumerates from
    the switches' route tables, on any topology. *)

include Flow_model.BACKEND

val engine : net -> Sim_fluid.Engine.t
(** The model's fluid engine; the hybrid model couples it to the
    packet links. *)

val start_conn :
  net ->
  ?resume_from:int ->
  ?switch:Sim_fluid.Engine.switch_spec ->
  legs:Sim_fluid.Engine.leg_spec array ->
  size:int ->
  on_close:(unit -> unit) ->
  unit ->
  Sim_fluid.Engine.conn
(** {!Sim_fluid.Engine.start} on this model's engine, with the
    transfer's delivered bytes added to the ledger once: at
    completion, or from [finish] if it is still open then.
    [on_close] fires at completion, after the bytes are added. The
    hybrid model starts its fluid continuations here. *)

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

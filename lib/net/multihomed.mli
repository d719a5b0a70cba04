(** Dual-homed FatTree (paper Roadmap section).

    Identical fabric to {!Fattree} but every host has two NICs attached
    to two distinct edge switches of its pod ([e] and [(e+1) mod k/2]).
    More parallel paths at the access layer means higher burst
    tolerance: a short-flow burst no longer concentrates on a single
    host uplink / edge downlink. Requires [k >= 4] so each pod has at
    least two edge switches.

    Built by {!Fattree.build} with two homes. A host reaches the
    fabric over both NICs and an agg reaches a destination over both
    its home edges, so {!Topology.paths} counts [4 * (k/2)^2] paths
    across pods, four times the single-homed FatTree's. *)

type params = Fattree.params = {
  k : int;
  oversub : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

val default_params : ?k:int -> ?oversub:int -> unit -> params
val host_count : params -> int
val create : sched:Sim_engine.Scheduler.t -> params -> Topology.t

(** VL2-style Clos network (Greenberg et al., SIGCOMM 2009).

    Three tiers: ToR switches (each serving [hosts_per_tor] hosts and
    dual-homed to two aggregation switches), aggregation switches, and
    an intermediate tier forming a complete bipartite graph with the
    aggregation tier. Upward hops are ECMP-hashed (ToR picks one of its
    2 aggs, the agg picks any intermediate — the valiant load balancing
    of VL2 realised with per-flow ECMP); downward hops are hashed over
    the destination ToR's two aggs (salt: intermediate id + 31), then
    deterministic. An agg homed to the destination ToR goes straight
    down instead of bouncing.

    The paper's §2 notes VL2's centralised directory can provide the
    path-count information MMPTCP's dup-ACK heuristic needs; here
    {!Topology.paths} reads it off the route tables. Between distinct
    ToRs it is [4 * intermediates] when they share no agg,
    [2 * intermediates + 1] when they share one (that agg goes straight
    down) and 2 when they share both. *)

type params = {
  aggs : int;  (** aggregation switches, even, >= 4 *)
  intermediates : int;
  tors : int;
  hosts_per_tor : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

val default_params : ?tors:int -> ?hosts_per_tor:int -> unit -> params
(** Defaults: 4 aggs, 4 intermediates, 16 ToRs, 4 hosts/ToR = 64 hosts,
    matching the default FatTree scale. *)

val host_count : params -> int
val create : sched:Sim_engine.Scheduler.t -> params -> Topology.t

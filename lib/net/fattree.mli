(** k-ary FatTree (Al-Fares et al., SIGCOMM 2008) with configurable
    over-subscription and hash-based ECMP.

    For even [k] the fabric has [k] pods, each with [k/2] edge and
    [k/2] aggregation switches, and [(k/2)^2] core switches. With
    over-subscription ratio [oversub], every edge switch serves
    [oversub * k/2] hosts behind its [k/2] uplinks, so the total host
    count is [oversub * k^3/4]. The paper's 512-server 4:1 topology is
    exactly [k = 8, oversub = 4].

    Routing is the standard two-level scheme, held as route tables
    ({!Switch}): upward hops are selected by per-switch-salted ECMP
    hashing on the packet 5-tuple; downward hops are deterministic
    from the destination's class (its edge switch). The tables route 1
    path between hosts under one edge, [k/2] within a pod and
    [(k/2)^2] across pods; {!Topology.paths} counts them, and that
    count is MMPTCP's topology-aware dup-ACK threshold. *)

type params = {
  k : int;  (** even, >= 2 *)
  oversub : int;  (** hosts per edge-switch uplink; 1 = full bisection *)
  host_spec : Topology.link_spec;  (** host-to-edge links *)
  fabric_spec : Topology.link_spec;  (** edge-agg and agg-core links *)
}

val default_params : ?k:int -> ?oversub:int -> unit -> params
(** Defaults: [k = 4], [oversub = 4], all links [default_link_spec]. *)

val host_count : params -> int

val create : sched:Sim_engine.Scheduler.t -> params -> Topology.t

val build :
  sched:Sim_engine.Scheduler.t ->
  params ->
  homes:int ->
  name:string ->
  Topology.t
(** The fabric behind {!create} ([homes = 1]) and {!Multihomed}
    ([homes = 2]), unvalidated: NIC [j] of a host under edge [e] goes
    to edge [(e + j) mod k/2] of its pod. One destination class per
    (pod, home edge). *)

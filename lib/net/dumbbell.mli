(** Small reference topologies for unit tests and fairness experiments. *)

val direct :
  sched:Sim_engine.Scheduler.t -> ?spec:Topology.link_spec -> unit -> Topology.t
(** Two hosts joined by one duplex link. Host 0 and host 1. *)

val create :
  sched:Sim_engine.Scheduler.t ->
  ?bottleneck_spec:Topology.link_spec ->
  pairs:int ->
  unit ->
  Topology.t
(** Classic dumbbell: [pairs] senders (hosts [0 .. pairs-1]) on the left
    switch, [pairs] receivers (hosts [pairs .. 2*pairs-1]) on the right
    switch, one bottleneck link between the switches. The bottleneck's
    queues are tagged [Core_layer] so its statistics are separable from
    the access links ([Edge_layer]/[Host_layer]). *)

val parking_lot :
  sched:Sim_engine.Scheduler.t ->
  ?spec:Topology.link_spec ->
  hops:int ->
  unit ->
  Topology.t
(** A chain of [hops+1] switches; host [2*i] talks across hop [i] to
    host [2*i+1]... simplified: hosts 0..hops-1 send to host [hops]
    attached to the last switch, traversing increasing numbers of
    shared links. Used for multi-bottleneck CC tests. *)

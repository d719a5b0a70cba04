(** Small reference topologies: one duplex link for unit tests, and a
    dumbbell with one shared bottleneck ([ext-coexist],
    [ext-fluid-xval]). *)

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

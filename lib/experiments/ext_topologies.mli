(** E7 (Roadmap: "simulating several data centre topologies"): the
    same mixed workload on a FatTree and a VL2-style Clos of equal host
    count, under MPTCP-8 and MMPTCP. MMPTCP's topology-aware threshold
    adapts automatically (it reads the routed path count,
    [Topology.paths], off each fabric's route tables), so the
    qualitative ordering should carry over — the paper's argument that
    one transport can serve disparate fabrics. *)

val experiment : Experiment.t

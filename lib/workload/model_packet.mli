(** Packet-level flow model (reference fidelity): the full
    TCP / MPTCP / MMPTCP stacks over queues and switches. *)

include Flow_model.BACKEND

val on_topology : Sim_net.Topology.t -> net
(** The packet model over an already built topology — the hybrid
    model's packet stage, which shares its topology with the fluid
    engine. *)

val start_flow_ext :
  Flow_model.config ->
  net ->
  rng:Sim_engine.Rng.t ->
  src_id:int ->
  dst_id:int ->
  size:int ->
  on_complete:(switched:bool -> unit) ->
  on_close:(unit -> unit) ->
  int
(** [start_flow] plus a completion hook — the hybrid model's handoff
    point. [switched] reports whether an MMPTCP connection finished in
    its multipath phase (always [false] for the other protocols), so
    the fluid continuation can resume in the matching phase. *)

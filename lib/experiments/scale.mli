(** Experiment scale presets.

    The paper simulates a 512-server (k=8, 4:1) FatTree with on the
    order of 100 K short flows; that takes tens of minutes per protocol
    in this simulator. [small] is the default benchmark scale — a k=4
    4:1 fat-tree (64 servers) and hundreds of flows — at which every
    qualitative shape of the paper already holds and the full suite
    runs in minutes. [full] is the paper-scale configuration. *)

type t = {
  k : int;
  oversub : int;
  flows : int;  (** total short flows *)
  rate : float;  (** Poisson arrivals per short host, flows/s *)
  seed : int;
  horizon_s : float;  (** simulation stop time *)
  model : Sim_workload.Scenario.model;
      (** which engine serves the flows (packet / fluid / hybrid);
          presets carry [Packet], the CLI overrides via [--model] *)
  obs : Sim_workload.Scenario.obs_cfg;
      (** observability switches applied to every point; presets carry
          {!Sim_workload.Scenario.default_obs} (everything off) *)
}

val tiny : t
(** Seconds-per-experiment smoke scale ([--tiny]: CI and the pinned
    [test/expected] outputs). *)

val small : t
val full : t
val pp : Format.formatter -> t -> unit
(** Every field, including the horizon and flow model: two runs that
    differ only in [horizon_s] (or only in [model]) must print
    distinguishable "workload:" lines. *)

val scenario_config :
  t -> protocol:Sim_workload.Scenario.protocol -> Sim_workload.Scenario.config
(** The paper workload (permutation TM, 1/3 long hosts, 70 KB shorts)
    at this scale. *)

val mptcp_8 : Sim_workload.Scenario.protocol
(** MPTCP with 8 coupled (LIA) subflows. *)

val mmptcp : Sim_workload.Scenario.protocol
(** MMPTCP with the default strategy. *)

val protocols : (string * Sim_workload.Scenario.protocol) list
(** The paper's comparison: [[("mptcp-8", mptcp_8); ("mmptcp",
    mmptcp)]]. *)

val versus :
  (string * 'a) list ->
  (string * 'a * string * Sim_workload.Scenario.protocol) list
(** [versus variants]: each named variant under each of {!protocols},
    variant-major — [(variant name, variant, protocol name,
    protocol)]. *)

val versus_label : string * 'a * string * 'b -> string
(** ["<variant name> <protocol name>"], the point label of a
    {!versus} point. *)

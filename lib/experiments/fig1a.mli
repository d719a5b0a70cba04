(** Figure 1(a): MPTCP short-flow completion time vs subflow count.

    Sweeps the number of MPTCP subflows from [lo] to [hi] over the
    paper workload and prints, per point, the mean and standard
    deviation of short-flow completion times (the paper's main panel)
    and the mean alone (the embedded zoom panel). The paper's claim:
    both grow with the subflow count, the deviation dramatically so,
    because more subflows mean smaller per-subflow windows and
    therefore more RTO-bound losses. *)

val configs :
  ?lo:int -> ?hi:int -> Scale.t -> (int * Sim_workload.Scenario.config) list
(** The swept (subflow count, config) list, in sweep order. *)

val experiment : Experiment.t
(** Points are subflow counts 1–9; the sink exports the swept series
    (subflows, mean, sd, p99, rto-flows, incomplete) from the column
    list its stdout table prints. *)

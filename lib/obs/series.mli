(** In-memory time series filled by the probe sampler.

    A series is bound to one {!Metrics} registry. Each {!sample} walks
    the registry's gauges in registration order and appends one
    [(t_ns, gauge index, value)] row per gauge, so the row stream is a
    deterministic function of the simulation alone — independent of
    job count or worker placement. Gauges registered after a tick
    simply start appearing at the next tick. *)

type t

val create : Metrics.t -> t

val metrics : t -> Metrics.t

val sample : t -> now_ns:int -> unit
(** Append one row per currently registered gauge, stamped [now_ns]. *)

val length : t -> int
(** Rows appended so far. *)

val get : t -> int -> int * int * float
(** [get t i] is row [i] as [(t_ns, gauge_index, value)]; the gauge
    index refers to {!Metrics.gauges} order. *)

(** Virtual-time probe sampler.

    A probe turns a simulation's (otherwise dormant) metrics registry
    on and walks it at a fixed virtual-time interval using a re-armable
    {!Scheduler.Timer}, appending one row per registered gauge to an
    in-memory {!Sim_obs.Series}. Sampling only {e reads} component
    state — gauge closures never mutate — so an enabled probe cannot
    change simulation behaviour, only interleave extra timer events
    (which shift sequence numbers but preserve the relative order of
    simulation events).

    Lifecycle: {!create} before the instrumented components are
    constructed (it enables the registry they consult at construction
    time), {!start} before [Scheduler.run], {!stop} after — stopping
    cancels the timer so a finished simulation reports
    [pending_events = 0]. *)

type t

val create : ?conns:int list -> Scheduler.t -> interval:Sim_time.t -> t
(** Enable the scheduler's metrics registry ([conns] filters
    connection-scoped instruments and events) and build a sampler that
    will tick every [interval] of virtual time. Also registers the
    scheduler's self-profiling gauges ([pending_events],
    [events_processed], [event_cells], [event_cells_free]) as the
    first columns.
    Raises [Invalid_argument] if [interval] is not positive. *)

val start : t -> unit
(** Arm the first tick at [now + interval]. Idempotent while armed. *)

val ticks : t -> int
(** Sampling ticks fired so far. *)

val sample_end : t -> unit
(** Take one sample at the current instant, unless a tick already
    landed there. For a run that ends before its horizon: without it,
    a probe whose next tick lies beyond the end would hold no sample
    of the run's last state. Not counted in {!ticks}. *)

val capture : t -> Sim_obs.Capture.t
(** Immutable snapshot of everything collected (gauge samples,
    histograms, events). Call after the run: it cancels the pending
    tick. *)

(** Immutable end-of-run snapshot of a simulation's observability data.

    A capture decouples the renderers (CSV/JSON sinks, which run on the
    coordinating process after all simulations finish) from the live
    registry, which dies with its simulation. Everything inside is
    plain data in deterministic order: gauge metadata and samples in
    registration/sampling order, histogram dumps in registration
    order, events in emission order. *)

type hist = {
  h_meta : Metrics.meta;
  lo : float;
  hi : float;
  bucket_counts : int array;  (** [buckets + 1] entries, last = overflow *)
  bucket_bounds : (float * float) array;  (** bounds per bucket *)
}

type t = {
  gauges : Metrics.meta array;  (** column metadata, registration order *)
  samples : (int * int * float) array;
      (** [(t_ns, gauge index, value)] rows in sampling order *)
  hists : hist array;
  events : Metrics.event array;
}

val of_series : Series.t -> t
(** Snapshot the series' registry and rows. Call once, after the
    simulation has finished. *)

val is_empty : t -> bool

val events_jsonl : t -> string
(** Render [events] as one JSON object per line:
    [{"t_ns":..,"kind":"..","conn":..,"subflow":..,"k":"v",..}].
    [conn]/[subflow] are omitted when negative; [info] pairs become
    top-level string fields. Returns [""] when there are no events. *)

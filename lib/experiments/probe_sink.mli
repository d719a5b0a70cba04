(** Render probe captures as sink artifacts.

    One capture (one simulation point) becomes:

    - per-component gauge time series
      [probe-<experiment>-<point>-<component>] — long-format tables
      with columns [t_ns, id, metric, units, value], rows in
      (sample time, registration) order;
    - a histogram dump [probe-<experiment>-<point>-hist] with one row
      per bucket;
    - a raw JSONL event stream
      [probe-<experiment>-<point>-events.jsonl].

    Empty streams produce no artifact. All ordering is derived from
    registration and emission order inside the simulation, so the
    rendered bytes are independent of job count. *)

val events_jsonl : Sim_obs.Capture.t -> string
(** Render the capture's events as one JSON object per line:
    [{"t_ns":..,"kind":"..","conn":..,"subflow":..,"k":"v",..}].
    [conn]/[subflow] are omitted when negative; [info] pairs become
    top-level string fields. Returns [""] when there are no events. *)

val artifacts :
  experiment:string ->
  (string * Sim_obs.Capture.t) list ->
  Sink.artifact list
(** [artifacts ~experiment pairs] renders every [(point_label,
    capture)] pair, in list order. Labels are sanitised to
    filename-safe characters. *)

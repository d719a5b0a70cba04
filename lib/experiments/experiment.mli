(** Experiments as first-class values.

    Every paper artefact and extension experiment is the same shape: a
    list of independent simulation {e points} swept from a {!Scale.t},
    a per-point runner, and a renderer that prints the artefact from
    the completed [(point, result)] pairs. Reifying that shape lets
    {!Registry} flatten the points of {e many} experiments into one
    shared job queue ([all --jobs N] with no inter-experiment
    barriers) while rendering strictly in registry order — stdout is
    byte-identical at every job count because nothing prints until
    every point of an experiment has finished.

    A new experiment is its own module exposing a [t] built with
    {!scenario} (or {!make}, for points that are not scenario runs),
    plus one line in {!Registry.all}; the CLI, [all], [--list] and the
    sink artifacts all derive from the registry. *)

type ('p, 'r) spec = {
  name : string;  (** CLI subcommand and artifact basename, e.g. ["fig1a"] *)
  doc : string;  (** one-line description for [--list] and CLI help *)
  points : Scale.t -> 'p list;  (** the sweep, in render order *)
  point_label : 'p -> string;  (** stable label for errors and the manifest *)
  run_point : Scale.t -> 'p -> 'r;
      (** one independent simulation; runs in a forked worker
          process at [jobs > 1]. Its result is marshalled at every job
          count, so it must hold no closure. *)
  render : Scale.t -> ('p * 'r) list -> Sink.table list;
      (** print the artefact via {!Report} and return its artifact
          tables for [--out DIR] — a printed table is returned as is,
          so stdout and the artifact come from one column list.
          Called after the whole sweep completed, pairs in [points]
          order. *)
  capture : 'r -> Sim_obs.Capture.t option;
      (** extract the probe capture from a point result, if the result
          type carries one ([Scenario.result.obs]); rendered by
          {!Probe_sink} into per-point time-series artifacts *)
  ledger : 'r -> Sim_obs.Flow_ledger.dump option;
      (** extract the flow-ledger dump from a point result, if the
          result type carries one ([Scenario.result.ledger]); rendered
          by {!Ledger_sink} into per-flow lifecycle artifacts *)
  ending : 'r -> (Sim_engine.Sim_time.t * Sim_workload.Scenario.ending) option;
      (** the simulated instant a point's run ended and why
          ([Scenario.result.duration] and [ending]), for the manifest *)
}

type t = E : ('p, 'r) spec -> t  (** packed: point/result types are internal *)

val make :
  name:string ->
  doc:string ->
  points:(Scale.t -> 'p list) ->
  point_label:('p -> string) ->
  run_point:(Scale.t -> 'p -> 'r) ->
  render:(Scale.t -> ('p * 'r) list -> Sink.table list) ->
  ?ending:('r -> (Sim_engine.Sim_time.t * Sim_workload.Scenario.ending) option) ->
  unit ->
  t
(** An experiment whose results carry no probe capture or flow
    ledger. [ending] defaults to none known. *)

val scenario :
  name:string ->
  doc:string ->
  points:(Scale.t -> 'p list) ->
  point_label:('p -> string) ->
  config:(Scale.t -> 'p -> Sim_workload.Scenario.config) ->
  render:(Scale.t -> ('p * Sim_workload.Scenario.result) list -> Sink.table list) ->
  t
(** An experiment whose points are scenario runs: each point runs
    [Scenario.run (config scale point)], and the result's probe
    capture and flow ledger become artifacts. *)

val name : t -> string
val doc : t -> string

(** {2 Execution}

    An {!instance} is an experiment bound to a scale: its points have
    become labelled jobs whose results accumulate inside the instance.
    The caller runs the jobs of any number of instances as one flat
    queue — each job's {!run_job} in this process or in a forked
    worker process, and its {!accept_job} in this process — then calls
    {!finish} on each instance in registry order. *)

type job

val job_label : job -> string

val job_experiment : job -> string
(** Name of the experiment the job belongs to — the coordinator's
    metadata for attributing a point failure. *)

val run_job : job -> string
(** Run the point under {!Prof.measure} and return its span and
    result as marshalled bytes; nothing is written into the instance,
    so this may run in a forked worker. Whatever the point raises
    escapes unchanged. *)

val accept_job : job -> string -> unit
(** Store the bytes {!run_job} returned for the {e same} job into the
    instance. [instantiate] builds both closures over the same result
    type, which is what makes the unmarshal well-typed. *)

type instance

val instantiate : ?clock:(unit -> float) -> t -> Scale.t -> instance
(** [clock] (a monotonic-enough seconds source, e.g.
    [Unix.gettimeofday] injected by the executable — library code
    must not read the wall clock, simlint D002) prices each point for
    the manifest; the default clock makes every duration 0. *)

val instance_name : instance -> string

val instance_jobs : instance -> job list
(** In [points] order. Jobs may complete in any order; {!finish}
    reads their results only once every job has been accepted. *)

val finish : instance -> Sink.artifact list
(** Render the experiment (prints via {!Report}) and return its sink
    artifacts: the tables [render] returned, any probe time-series
    artifacts extracted via [capture], and any flow-ledger artifacts
    extracted via [ledger]. Must be called after every job of the instance has
    run — [Invalid_argument] otherwise. *)

val point_ends : instance -> (float * string) option list
(** Per point, in [points] order: the simulated instant its run ended,
    in seconds, and {!Sim_workload.Scenario.ending_name} of why, when
    the experiment knows them; meaningful only after the jobs were
    accepted. *)

val point_spans : instance -> (string * Prof.span) list
(** Per-point (label, profiling span) in [points] order — wall time
    from [clock] plus [Gc] allocation deltas, measured wherever the
    point ran (coordinating process or worker process); meaningful
    only after the jobs were accepted. Rendered by {!Registry.run}
    under [--prof], and its wall times are the manifest's. *)

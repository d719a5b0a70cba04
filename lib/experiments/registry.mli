(** The experiment registry: every experiment of the suite, in the
    canonical order of DESIGN.md's index (F1a, F1b, F1c, T1, E1–E9).

    The CLI (subcommands, [--list], [all --only]), the [all] command
    body, and the sink artifacts are all derived from {!all}; adding
    an experiment means writing its module and adding one line here. *)

val all : Experiment.t list

val names : unit -> string list
(** Registry order. *)

val find : string -> Experiment.t option

val select : string list -> (Experiment.t list, string) result
(** [select names] is the named experiments in {e registry} order
    (duplicates collapsed), or [Error name] for the first unknown
    name. *)

val run :
  ?clock:(unit -> float) ->
  ?out:string ->
  ?git:string ->
  ?worker_argv:string array ->
  ?prof:bool ->
  jobs:int ->
  Scale.t ->
  Experiment.t list ->
  unit
(** Run the given experiments as one batch: every point of every
    experiment is flattened into a single shared job queue — no
    barrier between experiments, so a straggler point in one
    experiment cannot idle the others' workers — then each experiment
    renders in list order. All rendering and artifact writing happens
    here in the coordinating process after every point has finished,
    which is what keeps stdout and [--out] artifacts byte-identical
    at every [jobs] value.

    [jobs = 1] runs every point sequentially in this process. [jobs >
    1] shards the queue over that many {!Sim_engine.Proc_pool} worker
    processes and requires [worker_argv] — the command line of a
    process that will call {!worker} with the {e same} scale and
    experiment list (conventionally this process's own argv plus a
    hidden [--worker] flag). [Invalid_argument] if [jobs < 1], or if
    [jobs > 1] without [worker_argv]. A failed point raises
    {!Runner.Point_failed} (earliest point first) at any job count.

    [prof] (default false) appends a [prof-<experiment>] artifact per
    experiment — per-point wall-clock and [Gc] allocation spans with a
    TOTAL row, measured wherever the point ran (this process, or
    worker processes whose spans marshal back with the results).
    Span values are host-side and nondeterministic, so they render
    only under [out]; with [prof] but no [out] a fixed one-line note
    is printed instead and stdout stays deterministic.

    [out] writes each experiment's sink tables (CSV + JSON) and a
    [manifest.json] (scale, jobs, [git], per-point timings from
    [clock], total wall-clock) into the directory, creating it if
    missing, and prints a final one-line note. [clock] should be the
    executable's wall-clock (library code must not read the clock
    itself); without it the manifest's timings are zero. *)

val worker : ?clock:(unit -> float) -> Scale.t -> Experiment.t list -> unit
(** Worker-process body for [jobs > 1]: rebuild the same flat
    job queue as {!run} (determinism of [instantiate] makes parent
    and worker agree on what index [i] means), then serve job indices
    from stdin until the coordinator closes it. Never renders, never
    writes artifacts; stdout carries only the reply protocol. *)

(** Failure attribution and the default job count shared by the
    registry and the CLI.

    Every paper artefact is regenerated from a sweep of {e independent}
    simulations; {!Registry.run} runs them sequentially at [jobs = 1]
    and over {!Sim_engine.Proc_pool} worker processes otherwise. *)

exception Point_failed of { experiment : string; point : string; exn : exn }
(** Wrapper identifying which experiment point died when a job on the
    shared queue raises: without it, a crash deep in a [--full]-scale
    sweep is unattributable. Raised by the jobs built in
    {!Experiment.instantiate}, and by {!Registry.run} for a point that
    failed in a worker process. A printer is registered, so
    [Printexc.to_string] renders
    ["experiment NAME, point [LABEL]: <cause>"]. *)

exception Remote of string
(** A point failure reported by a worker process. Exceptions do not
    survive marshalling, so the worker sends [Printexc.to_string] of
    the original and the coordinator wraps that cause string in
    [Remote] inside a reconstructed {!Point_failed}. Its printer
    renders the payload verbatim, making the failure message identical
    to the in-process one. *)

val default_jobs : unit -> int
(** {!Sim_engine.Proc_pool.recommended_jobs}: one worker process per
    core, keeping one core for the coordinator; floored at 1. *)

(** Fixed pool of worker {e processes}: the one parallel backend.

    Simulations are single-threaded and self-contained, so a sweep of
    them is embarrassingly parallel. Each worker process gets a
    private heap, so allocation-heavy simulations do not contend on a
    shared major heap the way OCaml domains do (EXPERIMENTS.md's
    wall-clock table measured that). The pool re-executes the current
    binary with caller-supplied argv (conventionally the original
    command line plus a hidden [--worker] flag); each worker rebuilds
    the same deterministic job queue from that argv and then serves
    job {e indices} sent by the parent.

    Wire protocol, strictly request/reply per worker:
    - parent -> worker (stdin): one decimal job index per ['\n']-line;
      closing stdin tells the worker to exit.
    - worker -> parent (stdout): one [Marshal]-framed
      [int * (string, string) result] per completed index — [Ok
      payload] is job-defined marshalled bytes, [Error cause] is a
      printed exception.

    A worker that dies mid-point (crash, kill, abrupt [exit]) yields
    [Error] for its in-flight index; remaining indices are re-assigned
    to surviving workers, or delivered as [Error] if none survive. The
    parent never hangs on a dead worker and always reaps every child
    it spawned. *)

val recommended_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: one worker per
    core, keeping one core for the coordinating process. *)

val run :
  jobs:int ->
  worker_argv:string array ->
  n:int ->
  deliver:(int -> (string, string) result -> unit) ->
  unit
(** [run ~jobs ~worker_argv ~n ~deliver] executes job indices
    [0 .. n-1] on [min jobs n] worker processes spawned from
    [worker_argv.(0)] (resolved as a path, not via [$PATH]) and calls
    [deliver i outcome] exactly once per index, in arbitrary order, as
    replies arrive. Workers inherit stderr. [Invalid_argument] if
    [jobs < 1]. Does nothing when [n = 0]. *)

val serve : run:(int -> (string, string) result) -> unit
(** Worker side: read job indices from stdin, reply on stdout, return
    when stdin closes. [run] must not let exceptions escape (catch and
    return [Error]); stdout belongs to the protocol, so served jobs
    must not print to it. *)

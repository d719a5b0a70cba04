(** Fixed pool of worker {e processes}: the one parallel backend.

    Simulations are single-threaded and self-contained, so a sweep of
    them is embarrassingly parallel. Each worker process gets a
    private heap, so allocation-heavy simulations do not contend on a
    shared major heap the way OCaml domains do (EXPERIMENTS.md's
    wall-clock table measured that). Workers are [Unix.fork]ed
    children of the caller: each inherits the [job] closure the
    caller already built and runs it on the job {e indices} the
    parent sends it, so nothing is rebuilt and no binary is
    re-executed.

    Wire protocol, strictly request/reply per worker, over one pipe
    in each direction:
    - parent -> worker: one decimal job index per ['\n']-line;
      closing the pipe tells the worker to exit.
    - worker -> parent: one [Marshal]-framed
      [int * (string, string) result] per completed index — [Ok
      payload] is what [job] returned, [Error cause] is
      [Printexc.to_string] of what it raised.

    A worker that dies mid-point (crash, kill, abrupt [_exit]) yields
    [Error] for its in-flight index; remaining indices are re-assigned
    to surviving workers, or delivered as [Error] if none survive. The
    parent never hangs on a dead worker and always reaps every child
    it forked. *)

val recommended_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: one worker per
    core, keeping one core for the coordinating process. *)

val run :
  jobs:int ->
  n:int ->
  job:(int -> string) ->
  deliver:(int -> (string, string) result -> unit) ->
  unit
(** [run ~jobs ~n ~job ~deliver] forks [min jobs n] workers, runs
    [job i] for every index [i] in [0 .. n-1] in one of them, and
    calls [deliver i outcome] in the calling process exactly once per
    index, in arbitrary order, as replies arrive. Workers share the
    caller's stdout and stderr (both are flushed before each fork) and
    leave with [Unix._exit], so no [at_exit] handler runs twice; a
    [job] must not print to stdout. [Invalid_argument] if [jobs < 1].
    Does nothing when [n = 0]. Must not be called once a domain has
    been spawned ([Unix.fork] refuses). *)

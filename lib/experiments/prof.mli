(** Host-time self-profiling: wall-clock + [Gc] allocation spans
    around experiment points.

    A {!span} is measured where the point ran — in the coordinating
    process at [jobs = 1], or inside a process-pool worker (spans are
    plain data and marshal back with the point result) — and rendered
    by the coordinating process into one [prof-<experiment>] table per
    experiment with a TOTAL row aggregated across all points and
    workers.

    [sp_minor_words] is exact: it counts the words the point
    allocated, whatever ran before it in the process, so it is the
    same at any job count and CI pins it
    ([test/expected/fig1a-tiny-prof-words-*.txt]). The other fields
    are host-side measurements and are {e not} deterministic: wall
    time comes from the clock, and the promoted, major and collection
    counts depend on where the minor heap stood when the point began.
    CI compares only their shape (rows and columns). *)

type span = {
  sp_wall_s : float;  (** wall-clock seconds from the injected clock *)
  sp_minor_words : float;
  sp_promoted_words : float;
  sp_major_words : float;
  sp_minor_gcs : int;
  sp_major_gcs : int;
}

val zero : span

val add : span -> span -> span
(** Field-wise sum — how the coordinator totals spans from many
    points and worker processes. *)

val measure : clock:(unit -> float) -> (unit -> 'a) -> 'a * span
(** [measure ~clock f] runs [f] and prices it: wall time from [clock]
    (injected by the executable — library code must not read the
    clock, simlint D002), minor words from [Gc.minor_words] and the
    other allocation deltas from [Gc.quick_stat]. *)

val artifact : experiment:string -> (string * span) list -> Sink.artifact
(** [artifact ~experiment spans] renders the per-point spans (label,
    span), in point order, as the [prof-<experiment>] table with a
    trailing TOTAL row. *)

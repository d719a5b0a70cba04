(** Discrete-event scheduler.

    The scheduler owns the virtual clock and two pending-event
    structures: a binary heap for the near-future event stream and a
    hierarchical timing wheel ({!Timer_wheel}) for the far-future timer
    population (RTO, delayed ACK) that is almost always cancelled or
    re-armed before firing. [run] drains [min(heap-peek, wheel-peek)]:
    due wheel slots are handed to the heap, which restores exact
    [(time, seq)] order, so firing order — and therefore experiment
    output — is identical to a heap-only scheduler. Events scheduled
    for the same instant fire in the order they were scheduled.

    Cancellation is O(1) in both structures: a wheel entry unlinks
    immediately; a heap entry leaves a tombstone that is skipped when
    popped and compacted away when tombstones dominate. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> t

val now : t -> Sim_time.t
(** Current virtual time. *)

val ctx : t -> Sim_ctx.t
(** The simulation's identifier state. One scheduler = one simulation
    instance = one {!Sim_ctx.t}; nothing identifier-related is shared
    between schedulers, so independent simulations in one process
    cannot perturb each other. *)

val schedule_at : t -> Sim_time.t -> (unit -> unit) -> handle
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past.

    Allocates a fresh handle and closure per event: fine for cold-path
    setup code (workload arrival processes, one-off phase changes),
    wrong for anything on the per-packet or per-re-arm path — those go
    through {!Timer} (re-armable, one allocation for life) or {!Event}
    (pooled one-shot cells). simlint rule D008 flags hot-path use. *)

val schedule_after : t -> Sim_time.t -> (unit -> unit) -> handle
(** [schedule_after t delay f] runs [f] at [now t + delay]. Same
    allocation caveat as {!schedule_at}. *)

val cancel : t -> handle -> unit
(** Cancel a pending event and drop its action closure (releasing
    captured packets/buffers before any tombstone is popped).
    Cancelling an already-fired or already-cancelled event is a
    no-op. *)

val is_pending : handle -> bool

val run : ?until:Sim_time.t -> ?max_events:int -> t -> unit
(** Drain the event queue. Stops when the queue is empty, when the next
    event lies strictly beyond [until], or after [max_events] events. *)

val pending_events : t -> int
(** Events that will still fire: heap entries net of cancelled
    tombstones, plus wheel residents. A backlog consisting only of
    cancelled events reports zero. *)

val heap_pending : t -> int
(** Live events resident in the near-future heap (net of tombstones).
    With {!wheel_pending} this splits {!pending_events} by structure —
    exposed for the {!Probe} sampler's scheduler self-profiling. *)

val wheel_pending : t -> int
(** Live timers resident in the far-future wheel. *)

val cancelled_pending : t -> int
(** Cancelled events still buried in the heap as tombstones (the
    compaction heuristic's input). Excludes wheel cancellations, which
    unlink immediately. *)

val events_processed : t -> int

val event_cells_allocated : t -> int
(** Event cells created across every {!Event.pool} of this scheduler.
    Steady state is a small constant (the high-water mark of in-flight
    typed events); growth during a run means a pool is being drained
    faster than it fires. Exposed for the {!Probe} sampler. *)

val event_cells_free : t -> int
(** Event cells currently parked on pool freelists.
    [event_cells_allocated - event_cells_free] is the number of typed
    events armed right now. *)

(** Re-armable timer: one handle and one fire/state pair allocated at
    [create], reused across every restart. [schedule_*] atomically
    cancels any pending occurrence and re-arms, so at most one
    occurrence is ever pending; unlike {!cancel}, {!Timer.cancel}
    keeps the pair for the next re-arm. Each re-arm consumes one
    scheduling sequence number, exactly like a fresh {!schedule_at}.

    [create sched fire state] takes the fire function and its state
    separately so call sites pass a statically-allocated function
    (typically the module's [on_rto]/[on_timeout]) instead of building
    a closure; the pair is packed once into the entry's typed run
    slot. *)
module Timer : sig
  type sched := t
  type t

  val create : sched -> ('a -> unit) -> 'a -> t
  val schedule_at : t -> Sim_time.t -> unit
  val schedule_after : t -> Sim_time.t -> unit
  val cancel : t -> unit
  val is_pending : t -> bool
end

(** Pooled one-shot typed events — the closure-free hot path.

    A pool is created once per scheduling site with a fixed fire
    function; each [schedule_*] then fills a pooled cell (entry +
    payload slot) and arms it, allocating nothing in steady state.
    Cells return to the pool when they fire or are cancelled, so the
    pool's size is the high-water mark of simultaneously in-flight
    events (a link's pool holds about bandwidth-delay-product cells).

    Ownership contract (DESIGN.md §4j): scheduling a payload moves
    ownership into the pending event; the fire function receives it
    back. Only the scheduling site may hold the returned cell, and
    only until the event fires or is cancelled — a cell handle kept
    past that is a use-after-free (the cell is reissued to a later
    event), caught by generation parity when the sanitizer profile is
    compiled in. For [Packet.t] payloads this is the same single-owner
    contract D007 enforces: handing a raw pooled packet to
    [Event.schedule_*] is flagged outside pool-implementation
    modules. *)
module Event : sig
  type sched := t

  type 'a pool
  (** A pool of event cells sharing one fire function. *)

  type 'a cell
  (** A cell armed by [schedule_*]; valid until its event fires or is
      cancelled, then owned by the pool again. *)

  val pool : sched -> fire:('a -> unit) -> 'a pool

  val schedule_at : 'a pool -> Sim_time.t -> 'a -> 'a cell
  (** Arm a pooled cell carrying the payload; fires exactly like a
      {!schedule_at} closure event armed at the same instant (one seq
      consumed per arm). Raises [Invalid_argument] on past times. *)

  val schedule_after : 'a pool -> Sim_time.t -> 'a -> 'a cell

  val cancel : 'a pool -> 'a cell -> 'a option
  (** [cancel p c] unlinks a pending event and hands the payload back
      to the caller (who owns it again — for a packet that means
      freeing or re-scheduling it). [None] if the event already fired.
      Raises [Invalid_argument] under the sanitizer profile when [c]
      is a stale handle (its event already fired or was cancelled). *)

  val is_pending : 'a cell -> bool
end

(** Discrete-event scheduler.

    The scheduler owns the virtual clock and two pending-event
    structures, both binary min-heaps ordered by [(time, seq)], where
    [seq] is consumed once per arm: one for one-shot {!Event} cells
    and one for re-armable {!Timer}s. {!run} fires the lesser of the
    two roots, so events scheduled for the same instant fire in the
    order they were scheduled, whichever kind they are.

    Two ways to schedule, neither allocating per event in steady
    state: a re-armable {!Timer} (RTO, fluid connection steps, probe
    ticks) and a pool of one-shot typed {!Event} cells (a link's next
    arrival, flow arrivals).

    An event cell has a permanent id, so the event heap stores only
    ints: arming or firing one stores no pointer but its payload.
    Each pending timer records its own heap slot, so cancelling a
    timer removes it and re-arming a pending one re-keys it in place,
    both in O(log n); the heap never holds a cancelled event. *)

type t

val create : unit -> t

val now : t -> Sim_time.t
(** Current virtual time. *)

val ctx : t -> Sim_ctx.t
(** The simulation's identifier state. One scheduler = one simulation
    instance = one {!Sim_ctx.t}; nothing identifier-related is shared
    between schedulers, so independent simulations in one process
    cannot perturb each other. *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue. Stops when the queue is empty or when the
    next event lies strictly beyond [until]; the clock then advances
    to [until] if that is later. In the dev profile it fails if a key
    it fires is not strictly after the last one fired. *)

val stop : t -> unit
(** Lower the running {!run}'s bound to the current instant: the
    events still due at this instant fire, nothing later does, and
    [run] returns with the clock left here rather than moved to
    [until]. Outside a [run] it does nothing. *)

val reserve : t -> int -> int
(** [reserve t n] takes the next [n] scheduling sequence numbers and
    returns the first. They are used later, one per
    {!Event.schedule_at_reserved}, so an event armed late keeps the
    same-instant order it would have had if armed now. Raises
    [Invalid_argument] if [n] is negative. *)

val pending_events : t -> int
(** Events that will still fire. Cancelled events are gone from the
    heap at once, so they never count. *)

val events_processed : t -> int

val event_cells_allocated : t -> int
(** Event cells created across every {!Event.pool} of this scheduler.
    Steady state is a small constant (the high-water mark of in-flight
    typed events); growth during a run means a pool is being drained
    faster than it fires. Exposed for the {!Probe} sampler. *)

val event_cells_free : t -> int
(** Event cells currently parked on pool free stacks.
    [event_cells_allocated - event_cells_free] is the number of typed
    events armed right now. *)

(** Re-armable timer: one handle and one fire/state pair allocated at
    [create], reused across every restart. [schedule_*] on a pending
    timer moves that occurrence to the new time, so at most one
    occurrence is ever pending; {!Timer.cancel} keeps the pair for the
    next re-arm. Each arm consumes one scheduling sequence number,
    exactly like an {!Event.schedule_at}.

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

(** Pooled one-shot typed events.

    A pool is created once per scheduling site with a fixed fire
    function; each [schedule_*] then fills a pooled cell's payload
    slot and arms it, allocating nothing in steady state. A cell
    keeps the id it was made with for the scheduler's lifetime.
    Events are fire-and-forget: nothing cancels one, and its cell
    returns to the pool when it fires, so the pool's size is the
    high-water mark of simultaneously in-flight events (a link's pool
    holds one cell: only its oldest packet's arrival is ever pending).
    Work that may need cancelling (an RTO, a fluid connection's next
    step) is a {!Timer}.

    Ownership contract (DESIGN.md §4j): scheduling a payload moves
    ownership into the pending event; the fire function receives it
    back. For [Packet.t] payloads this is the same single-owner
    contract D007 enforces: handing a raw pooled packet to
    [Event.schedule_*] is flagged outside pool-implementation
    modules. *)
module Event : sig
  type sched := t

  type 'a pool
  (** A pool of event cells sharing one fire function. *)

  val pool : sched -> fire:('a -> unit) -> 'a pool

  val schedule_at : 'a pool -> Sim_time.t -> 'a -> unit
  (** Arm a pooled cell carrying the payload (one seq consumed per
      arm, like a {!Timer} arm). Raises [Invalid_argument] on past
      times. *)

  val schedule_after : 'a pool -> Sim_time.t -> 'a -> unit

  val in_flight : 'a pool -> int
  (** Cells of this pool armed now: made and not back in the pool. *)

  val schedule_at_reserved : 'a pool -> Sim_time.t -> seq:int -> 'a -> unit
  (** Arm a pooled cell with a seq taken earlier by {!reserve} instead
      of the next one. The caller arms it before its [(time, seq)] key
      could be the least pending one; it then fires exactly where it
      would have had it been armed when the seq was reserved. Raises
      [Invalid_argument] on past times and, in the dev profile, on a
      seq that was never reserved or a key behind the event firing
      now. *)
end

(** Hierarchical timing wheel (Varghese & Lauck) for the scheduler's
    timer population: events armed far in the future and almost always
    cancelled or re-armed before firing (TCP retransmission and
    delayed-ACK timers). Schedule, cancel and re-arm are O(1). Times
    are native-int nanoseconds ({!Sim_time}'s representation), so the
    whole structure is unboxed word arithmetic.

    The wheel does not order events within a slot. [advance] hands
    every due entry to the caller, which restores exact [(time, seq)]
    order by pushing them through its binary heap — emitting an entry
    early is safe (the heap re-sorts it); the wheel's invariants
    guarantee an entry is never emitted late. See the implementation
    header for the full argument. *)

type erun = Run : ('a -> unit) * 'a -> erun
(** Typed fire slot: a static fire function paired with the state it
    runs on, packed behind an existential so [entry] stays
    monomorphic. A re-armable timer or pooled event cell (the only
    things the scheduler arms) installs its pair once and re-arms
    forever after without allocating. *)

type entry = {
  mutable time : int;    (** absolute due time, ns — exact, not rounded *)
  mutable seq : int;     (** scheduler insertion counter at last arm *)
  mutable run : erun;
  mutable state : int;
  mutable next : entry;
  mutable prev : entry;
  mutable slot : int;
}
(** Intrusive node. The scheduler uses [entry] directly as its event
    handle so a re-armable timer or event cell reuses one allocation
    (and one fire/state pair) across its whole life. *)

(** {2 Entry states}

    [st_idle]: not scheduled (never armed, cancelled, or popped as a
    tombstone). [st_wheel]: linked into a wheel slot. [st_heap]: handed
    off to the scheduler's event heap. [st_fired]: popped and run. *)

val st_idle : int
val st_wheel : int
val st_heap : int
val st_fired : int

val make_entry : ('a -> unit) -> 'a -> entry
(** [make_entry fire state] is a fresh idle, self-linked entry whose
    [run] slot holds [Run (fire, state)]. *)

type t

val create : unit -> t

val live : t -> int
(** Entries currently resident in the wheel (excludes entries already
    handed to the heap). *)

val cursor_ns : t -> int

val generation : t -> int
(** Bumped on every mutation (schedule, cancel, advance). Lets the
    scheduler cache {!next_due_ns} across heap pops instead of
    rescanning the levels for every event. *)

val schedule : t -> entry -> bool
(** Insert an idle entry whose [time] and [seq] are already set.
    Returns [false] (without inserting) when the entry is due within
    one level-0 slot of the cursor — the caller should push it
    straight onto its heap. Time must be at or after the cursor. *)

val cancel : t -> entry -> unit
(** O(1) unlink of an [st_wheel] entry; the entry becomes idle. The
    caller decides whether to drop the fire/state pair (one-shot
    events) or keep it (re-armable timers, pooled event cells). *)

val next_due_ns : t -> int
(** Start time of the earliest non-empty slot — a lower bound on the
    earliest pending entry's due time. [max_int] when empty. *)

val advance : t -> upto:int -> emit:(entry -> unit) -> unit
(** Move the cursor forward, calling [emit] on every entry whose slot
    starts at or before [upto] (cascading multi-level slots as
    needed). Emitted entries leave the wheel in [st_idle]; the caller
    re-keys them by exact [(time, seq)]. *)

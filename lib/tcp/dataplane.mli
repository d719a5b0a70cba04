(** Shared data-level state of a multipath connection.

    One side allocates data-sequence ranges to subflows on demand (the
    transmission opportunity *is* the scheduler: whichever subflow has
    congestion-window space pulls the next chunk); the other side
    counts the bytes the subflow receivers hand it, each once, to
    detect completion — the paper's flow-completion definition (all
    bytes received, any subflow). *)

module Time = Sim_engine.Sim_time

type t

val create :
  sched:Sim_engine.Scheduler.t -> size:int -> on_complete:(unit -> unit) -> t

(** {1 Sender side} *)

val pull : t -> max:int -> (int * int) option
(** Allocate the next [(dsn, len)] chunk, [len <= max]. *)

val assigned : t -> int
(** Bytes allocated to subflows so far. *)

val unassigned : t -> bool
(** Whether unallocated data remains. *)

(** {1 Receiver side} *)

val deliver : t -> dsn:int -> len:int -> unit
(** Record [len] new bytes (the caller passes each byte once); fires
    [on_complete] exactly once when the count reaches [size]. In the
    dev profile it fails when [dsn + len] exceeds {!assigned}: no byte
    is delivered before {!pull} has handed it out. *)

val received_bytes : t -> int
val is_complete : t -> bool
val completed_at : t -> Time.t option
val size : t -> int

(** Per-simulation flow lifecycle ledger.

    One [t] belongs to one simulation (it hangs off
    [Sim_engine.Sim_ctx], next to {!Metrics}), records every flow's
    lifecycle — arrival, handshake, MMPTCP phase switch, hybrid
    promotion, retransmit counts, bytes, completion — and freezes it
    into an immutable {!dump} at end of run. It is the only per-flow
    record of a scenario: [Sim_workload.Scenario.run] sets its clock,
    records every flow with {!on_start} and derives each flow's result
    from the dump.

    All three flow models ([packet], [fluid], [hybrid]) drive the same
    hooks, keyed by transport connection id. MPTCP/MMPTCP subflows
    share their parent's conn id, so subflow-level events (handshakes,
    RTOs, fast retransmits) aggregate onto the one flow record —
    handshake keeps the {e first} timestamp, counters sum. The hybrid
    model's packet→fluid promotion registers the fluid continuation's
    conn id as an {e alias} of the original record, so stage-2 events
    land on the same flow. Hooks for conn ids the ledger has never
    seen are dropped (e.g. background transfers started outside the
    workload, or transports driven outside a scenario): one bounds
    check, no allocation. *)

type entry = {
  e_conn : int;  (** transport connection id (packet-stage id for hybrid) *)
  e_src : int;  (** source host id *)
  e_dst : int;  (** destination host id *)
  e_size : int;  (** flow size, bytes *)
  e_long : bool;  (** workload class: long (true) vs short *)
  e_start_ns : int;  (** virtual arrival time *)
  e_handshake_ns : int;  (** first handshake completion, [-1] if none *)
  e_switch_ns : int;  (** MMPTCP PS→MPTCP phase switch, [-1] if none *)
  e_promote_ns : int;  (** hybrid packet→fluid promotion, [-1] if none *)
  e_complete_ns : int;  (** completion time, [-1] if unfinished *)
  e_rtos : int;  (** RTO firings across all subflows *)
  e_fast_rtxs : int;  (** fast retransmits across all subflows *)
  e_bytes : int;  (** bytes delivered *)
}

type dump = entry array
(** Entries in arrival order. Plain immutable data — safe to
    [Marshal] across the process-pool boundary. *)

type t

val create : unit -> t
(** A fresh, empty ledger whose clock reads 0. *)

val set_clock : t -> clock_ns:(unit -> int) -> unit
(** [clock_ns] supplies virtual-time timestamps — pass the owning
    scheduler's clock. Call before flows start. *)

(** {2 Lifecycle hooks}

    Every hook but {!on_start} drops records for conn ids without a
    prior {!on_start}. *)

val on_start :
  t -> conn:int -> src:int -> dst:int -> size:int -> long:bool -> unit
(** A flow arrived and its transport was created. First call per conn
    wins; later calls for the same conn are ignored. *)

val on_handshake : t -> conn:int -> unit
(** A handshake completed (first one wins — MPTCP subflows share the
    parent conn id). *)

val on_phase_switch : t -> conn:int -> unit
(** MMPTCP switched PS→MPTCP (also: fluid switch-leg swap). *)

val on_promote : t -> conn:int -> cont:int -> unit
(** Hybrid handoff: flow [conn] promoted to a fluid continuation with
    conn id [cont]. Records the promotion time, aliases [cont] to the
    same ledger record so stage-2 hooks land on it, and clears any
    completion the packet stage recorded when it ran out of
    handoff bytes (that was a stage boundary, not flow completion). *)

val on_rto : t -> conn:int -> unit
val on_fast_rtx : t -> conn:int -> unit

val on_complete : t -> conn:int -> unit
(** The last byte landed. First call wins. *)

val add_bytes : t -> conn:int -> int -> unit
(** Add one stage's final delivered byte count. Each transport stage
    calls it exactly once: when its connection closes, or at the end
    of the run if it is still open then. A hybrid flow's two stages
    sum onto the one record through the promotion alias. *)

(** {2 Read-out} *)

val count : t -> int
(** Flows recorded so far. *)

val dump : t -> dump
(** Freeze into entries, arrival order. Call after the run. *)

val fct_ns : entry -> int option
(** Flow completion time, [None] while unfinished. *)

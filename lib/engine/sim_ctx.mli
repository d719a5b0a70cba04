(** Per-simulation identifier and observability state.

    One [t] belongs to one simulation instance (the {!Scheduler}
    carries it), so independent simulations never share counters.
    Identical runs draw identical id sequences, which keeps results
    reproducible and independent of whatever ran earlier in the
    process.

    All counters start at 0; the first draw of each kind is 1. *)

type t

type ext = ..
(** Open extension point: state that must live per-simulation but
    whose type a higher layer owns. The engine cannot name, say, the
    packet type, so {!Sim_net.Packet} extends this variant with its
    freelist and stashes it here via {!set_ext}/{!ext}. One slot per
    context; today its only occupant is the packet pool. *)

val create : unit -> t

val fresh_packet_uid : t -> int
(** Next packet uid (tracing / debugging identity). *)

val fresh_conn_id : t -> int
(** Next transport connection id (host demultiplexing key). *)

val fresh_queue_id : t -> int
(** Next packet-queue id (seeds per-queue RED randomness). *)

val pool_live : t -> int
(** Pooled objects currently live (issued and not yet freed) in this
    simulation — the packet-pool sanitizer's leak counter. Maintained
    by {!Sim_net.Packet} only when {!Sanitizer_mode.on}; always 0 in
    release builds. A finished simulation whose transport tore down
    cleanly reports 0: anything positive is a retained (leaked)
    packet, anything negative a double-free that slipped past the
    per-record generation check. *)

val pool_track : t -> int -> unit
(** [pool_track t delta] adjusts {!pool_live} by [delta] (+1 on issue,
    -1 on free). Called by the pool owner under {!Sanitizer_mode.on}
    only. *)

val metrics : t -> Sim_obs.Metrics.t
(** This simulation's metrics registry. Created disabled; {!Probe}
    turns it on before components are constructed. Per-simulation so
    that probing one run cannot leak into another run in the same
    process. *)

val ledger : t -> Sim_obs.Flow_ledger.t
(** This simulation's flow-lifecycle ledger. Created disabled;
    [Sim_workload.Scenario] turns it on before flows arrive.
    Per-simulation for the same reason as {!metrics}. *)

val ext : t -> ext option
(** The extension slot, [None] until {!set_ext}. *)

val set_ext : t -> ext -> unit
(** Install (or replace) the extension payload. *)

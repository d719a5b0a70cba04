(** Incremental weighted max-min rate allocator.

    The flow-level engine's capacity model: links are buckets indexed
    by the topology's dense link ids, flows are weighted demands over
    a fixed path of link ids, and the allocator assigns each flow a
    rate (bits/second) by progressive filling — the weighted max-min
    fair allocation when run over the whole population.

    Mutations ([add], [remove], [set_avail]) are cheap: they only
    mark the flows sharing a link with the mutation as dirty. [flush]
    then water-fills the dirty set against the rest of the population
    frozen at its committed rates, propagating
    second-order effects through bounded ripple waves. From an
    all-dirty start a single flush is exact weighted max-min; under
    incremental churn the allocation tracks it to within the ripple
    horizon (see DESIGN.md §4k).

    Invariants maintained (and pinned by [test/test_fluid.ml]):
    per-link conservation (sum of member rates never exceeds
    [link_avail]) and the bottleneck condition from an all-dirty
    flush (every flow is rate-limited by at least one saturated path
    link).

    Determinism: worklists run in deterministic queue order (no
    hashing anywhere) and water-filling breaks level ties by link id,
    so allocation and callback order are pure functions of the
    mutation history. All state lives in ['a t].

    Callbacks are grouped by owner: every flow carries an [owner] key
    (in the fluid engine, the connection id, so a multipath
    connection's legs share one). A pass — one [flush] or one [settle]
    — first commits every rate, then fires [on_rate] exactly once per
    owner with a materially-changed flow, passing that owner's {e last}
    changed flow in queue order, and ordering owners by the position
    of that flow. Firing once at the last position instead of once per
    changed flow leaves the relative order of owner-wide side effects
    (a connection re-arming its timer) exactly as per-flow callbacks
    would leave it. Callbacks must not call [flush] or [settle]. *)

type 'a t
type 'a flow

val create :
  caps:float array ->
  on_rate:('a flow -> unit) ->
  unit ->
  'a t
(** [caps.(id)] is the capacity in bps of link [id] (positive).
    [on_rate] is invoked from [flush] and [settle] once per owner
    having a flow whose committed rate changed by more than 1e-3
    (relative), after the whole pass is committed (see above for the
    order). The same threshold gates ripple: a link whose total
    allocation moved by less than [1e-3 * cap] does not re-dirty its
    members. Each flush water-fills its dirty set once; the
    neighbours that ripple re-dirties wait for the next flush. *)

val add :
  'a t -> owner:int -> weight:float -> path:int array -> data:'a -> 'a flow
(** Register a flow. [owner] (>= 0) groups flows for [on_rate]; the
    allocator keeps one int per owner id up to the largest seen, so
    owners should be dense small ints. [path] is the link-id array
    from {!Sim_net.Topology.path} (copied). An empty path means
    unconstrained: the flow gets a practically infinite rate and
    never enters water-filling. Rates materialise at the next
    [flush]. *)

val remove : 'a t -> now:float -> 'a flow -> unit
(** Unregister (idempotent). [now] (seconds) timestamps the capacity
    release for the utilisation integrals. *)

val set_avail : 'a t -> link:int -> float -> unit
(** Capacity visible to the allocator on one link, clamped to
    [\[0, cap\]] — the hybrid model's residual-coupling hook (nominal
    capacity minus measured packet-level throughput). *)

val flush : 'a t -> now:float -> unit
(** Recompute rates for everything dirty, firing [on_rate] once per
    owner with a material change, after the last ripple wave. [now]
    in seconds timestamps utilisation integrals. *)

val settle : 'a t -> now:float -> 'a flow array -> unit
(** Water-fill just [flows] (in array order, alive) against the rest of the
    population frozen at its committed rates, firing [on_rate] once
    per owner among them with a material change — the cheap local
    pass a connection start runs to get an accurate initial rate
    without paying for global ripple.
    Neighbours dirtied by the mutation stay queued for the next
    [flush]. At light load (no competition on the touched links) the
    result already is the max-min rate. *)

val data : 'a flow -> 'a
val rate : 'a flow -> float
(** Committed allocation, bps (0 until the first flush). *)

val weight : 'a flow -> float
val link_avail : 'a t -> link:int -> float

val link_alloc : 'a t -> link:int -> float
(** Sum of committed member rates — what the hybrid model writes back
    into {!Sim_net.Link.set_reserved_bps}. *)

val finalize : 'a t -> now:float -> unit
(** Advance every link's utilisation integral to [now] (call once at
    the horizon before reading utilisations). *)

val link_utilisation : 'a t -> link:int -> now:float -> float
(** Mean allocated fraction of capacity over [\[0, now\]]. *)

val pending_dirty : 'a t -> int
(** Live flows awaiting recomputation (diagnostic). *)

(** {2 Self-profiling counters}

    Monotonic work counters maintained unconditionally (plain int
    stores) and exposed as fluid-engine gauges — the allocator-health
    view of a run: how many rebalance waves it took, how often the
    quantum timer actually flushed, and how hard the water-filling
    heap worked. *)

val live_flows : 'a t -> int
(** Constrained (non-empty-path) flows currently registered. *)

val flushes_run : 'a t -> int
(** [flush] calls that found dirty flows to process. *)

val waves_run : 'a t -> int
(** Water-filling waves executed (across [flush] ripple and [settle]). *)

val settles_run : 'a t -> int
(** Local [settle] passes executed. *)

val heap_pops : 'a t -> int
(** Bottleneck-heap pop operations — the water-filling inner-loop
    work measure. *)

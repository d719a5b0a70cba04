(** Assembled networks.

    A topology bundles the hosts, switches and links of a built network
    with the route walk behind {!paths} and {!path}. {!paths} is the
    simulator's one path count: the packet model's MMPTCP reads its
    topology-aware dup-ACK threshold from it, and the flow models
    spread flows over the paths it numbers.

    Routes are data: the switches' route tables ({!Switch}) and the
    hosts' NIC groups. Packets follow them one hop at a time; the flow
    models, which push no packets, enumerate whole forward paths from
    the same tables. *)

module Time = Sim_engine.Sim_time

type link_spec = {
  rate_bps : float;
  delay : Time.t;
  queue_capacity : int;  (** packets *)
}
(** Every link built from a spec has {!Link.create}'s default
    propagation jitter bound (5 us). *)

val default_link_spec : link_spec
(** 100 Mb/s, 20 us delay, 100-packet drop-tail queue — the base
    data-centre link. *)

type walk
(** The enumeration memo (see {!paths}). *)

type t = {
  sched : Sim_engine.Scheduler.t;
  name : string;
  hosts : Host.t array;  (** [hosts.(i)] has address [i] *)
  switches : Switch.t array;  (** [switches.(i)] has id [i] *)
  links : Link.t array;  (** [links.(i)] has id [i] *)
  walk : walk;
}

val host : t -> int -> Host.t
val host_count : t -> int

(** {1 Aggregate statistics} *)

val layer_links : t -> Layer.t -> Link.t list
(** Links transmitted into by devices of the given layer. *)

val layer_loss_rate : t -> Layer.t -> float
(** Dropped / offered packets across the layer's queues; 0 if idle. *)

val layer_utilisation : t -> Layer.t -> float
(** Mean transmitter busy fraction over the layer's links at the
    current simulation time. *)

val total_drops : t -> int

(** {1 Forward paths}

    The paths a packet from host [src] can take to host [dst] are the
    walks of the route tables: one link of [src]'s NIC group, then at
    each switch the entry for [dst]'s class — every link of a [Group],
    or the [Local] down-link of [dst]'s slot, which ends the path.
    They are numbered depth-first in group-link order, NIC group first;
    on a FatTree that is [choice = a * k/2 + m] for uplinks [a] (edge)
    and [m] (agg). A path is decoded by descending with the subtree
    path counts, which depend only on (switch, destination class) and
    are memoised in the topology for its whole life (filled on first
    use). Where every link of a group leads to as many paths, which
    the memo also records, the descent divides instead of scanning. *)

val paths : t -> src:int -> dst:int -> int
(** Number of distinct forward paths from host [src] to host [dst]; 0
    when [src = dst]. *)

val path : t -> src:int -> dst:int -> choice:int -> int array
(** Link ids of path [choice], in [\[0, paths)], in hop order: the
    source NIC first, the destination's down-link last. A fresh array;
    empty when [src = dst]. *)

val walk : t -> src:int -> dst:int -> choice:int -> int
(** {!path} without the copy: writes the path's link ids into
    {!walk_buffer} from index 0 and returns its length. The buffer
    holds them until the next [walk] or [path] on [t]. *)

val walk_buffer : t -> int array

(** {1 Building blocks for topology constructors} *)

module Builder : sig
  type b

  val create : Sim_engine.Scheduler.t -> b

  val make_link : b -> spec:link_spec -> layer:Layer.t -> Link.t
  (** A fresh unattached link with a fresh id and its own queue. *)

  val to_switch : Link.t -> Switch.t -> unit
  (** Attach the link's receive side to a switch. *)

  val to_host : Link.t -> Host.t -> unit

  val finish :
    b ->
    name:string ->
    hosts:Host.t array ->
    switches:Switch.t array ->
    dests:Switch.dests ->
    t
  (** The topology over every link made so far. Every switch must have
      its table installed over [dests]. Raises [Invalid_argument]
      unless [switches.(i)] has id [i]. *)
end

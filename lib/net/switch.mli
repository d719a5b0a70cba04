(** Output-queued switch.

    Forwarding reads a route table, not code. Every host belongs to an
    attachment class — the set of switches with a down-link to it —
    and holds a slot in that class ({!dests}). A switch keeps one
    {!entry} per destination class: [Local] down-links indexed by the
    destination's slot, or a [Group] of next-hop links from which
    {!Ecmp.pick} chooses by the packet's 5-tuple and the group's salt.
    Topology builders fill the tables, and {!Topology.paths} walks the
    same tables, so packet forwarding and flow-model path enumeration
    cannot disagree. Forwarding latency inside the switch is folded
    into link propagation delay, as in ns-3 point-to-point models. *)

type entry =
  | Local of Link.t array
      (** The destination hangs off this switch: its down-link, by slot. *)
  | Group of { salt : int; links : Link.t array }
      (** Equal-cost next hops, in enumeration order. *)

type dests = private { cls : int array; slot : int array; classes : int }
(** Class and slot of every destination host, indexed by address;
    [classes] is the number of classes. *)

val dests : hosts:int -> size:int -> dests
(** Classes of [size] consecutive addresses: host [h] is in class
    [h / size] at slot [h mod size]. *)

type t

val create : id:int -> dests:dests -> t
(** A switch forwarding to the hosts [dests] describes, once its table
    is installed. *)

val id : t -> int

val group : ?salt:int -> t -> Link.t array -> entry
(** A [Group] salted with [salt], by default the switch id. *)

val set_table : t -> entry array -> unit
(** Install the route table: entry [c] for destination class [c].
    Raises [Invalid_argument] unless it has one entry per class. *)

val entry : t -> int -> entry
(** The installed entry for a destination class. *)

val receive : t -> Packet.t -> unit
(** Forward a packet. Raises [Invalid_argument] if no table is
    installed. *)

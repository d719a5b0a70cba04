(** MMPTCP policy knobs (paper, Section 2).

    Two independent design choices are called out by the paper and
    ablated in this repository's benchmarks: how the packet-scatter
    phase protects itself against reordering-induced spurious fast
    retransmits, and when the connection switches to MPTCP mode. *)

(** How the packet-scatter sender sets its duplicate-ACK threshold. *)
type dupack_strategy =
  | Static of int
      (** Fixed threshold; [Static 3] is standard TCP and the "no
          protection" baseline. *)
  | Topology_aware
      (** Paper approach (1): derive the threshold from the number of
          equal-cost paths between the endpoints, which the paper
          computes from FatTree's addressing scheme and the simulator
          reads off the route tables. With [p] paths the threshold is
          [max 3 p]: a packet can be overtaken by at most one
          queue-full of packets per alternative path, so path count
          bounds plausible reorder depth. *)
  | Adaptive of { initial : int; cap : int }
      (** Paper approach (2), RR-TCP-style: start at [initial] and
          raise the threshold by one (up to [cap]) whenever a
          duplicate-data signal (DSACK stand-in) reveals a spurious
          retransmission. *)

(** When to leave the packet-scatter phase. *)
type switch_strategy =
  | Data_volume of int
      (** Paper strategy (1): switch after this many bytes have been
          handed to the scatter flow. Short flows below the threshold
          never switch. *)
  | Congestion_event
      (** Paper strategy (2): switch at the first fast retransmit or
          RTO on the scatter flow. *)
  | Never  (** Pure packet-scatter (the PS baseline from Raiciu et al.). *)

type t = {
  subflows : int;  (** MPTCP-phase subflows (paper uses 8) *)
  switch : switch_strategy;
  dupack : dupack_strategy;
}

val default : t
(** 8 subflows, [Data_volume 100_000] (just above the paper's 70 KB
    short flows), [Topology_aware]. *)

val switch_to_string : switch_strategy -> string
val dupack_to_string : dupack_strategy -> string

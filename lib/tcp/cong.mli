(** Congestion control as data.

    A sender's congestion state is one all-float {!window}. A
    controller is a closed variant over the two algorithms in this
    repository — NewReno and MPTCP's Linked Increases (LIA) — and
    {!on_ack} dispatches on it; both share one loss response. The
    sender passes its window, MSS and flight size as arguments; LIA
    additionally reads every member's window and RTT estimator through
    its group. *)

type window = {
  mutable cwnd : float;  (** congestion window, bytes *)
  mutable ssthresh : float;  (** slow-start threshold, bytes *)
}
(** All-float, so both fields are stored unboxed. *)

type loss_kind = Fast_retransmit | Timeout

(** Linked Increases (RFC 6356), the MPTCP coupled algorithm evaluated
    in the paper. All subflows of a connection share a {!group}. In
    congestion avoidance subflow [i] grows by
    [min(alpha * acked * mss / cwnd_total, acked * mss / w_i)] bytes
    per ACK, with

    {v alpha = cwnd_total * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2 v}

    — never more aggressive than an uncoupled TCP on its best path, and
    shifting load away from congested paths. Slow start and the loss
    response are the standard per-subflow mechanisms. *)
module Lia : sig
  type group

  type member
  (** One subflow's place in its group: its window and RTT
      estimator. *)

  val make_group : unit -> group
  val subflow_count : group -> int

  val alpha : group -> float
  (** The coupling factor over the group's members, newest first; 1.0
      for an empty group. The per-ACK increase evaluates the same
      function. *)

  val fluid_weights : rtts:float array -> float array
  (** Equilibrium per-subflow rate split of a LIA-coupled connection,
      as weights summing to 1 (proportional to [1/rtt_i]): at the LIA
      fixed point with equal per-path loss, windows equalise and
      throughput is inverse in RTT. The fluid engine assigns leg [i]
      the weight [w_i] so the aggregate takes one TCP-fair share at a
      shared bottleneck and the sum of its per-path shares on disjoint
      paths. Empty input yields an empty array. *)
end

type algorithm = Reno | Lia of Lia.group
(** What a sender runs. {!Tcp_tx.create} turns it into the sender's
    controller with {!create}. *)

type t = private Reno_cc | Lia_cc of Lia.member

val create : algorithm -> window -> rtt:Rtt_estimator.t -> t
(** Reno's empty state, or the sender's membership of the LIA group
    (joined now, ahead of the earlier members). [window] and [rtt] are
    the sender's own; they must be the window later passed to
    {!on_ack} and {!on_loss}. *)

val on_ack : t -> window -> mss:int -> acked:int -> unit
(** Called for every ACK that advances the cumulative acknowledgement,
    outside fast recovery (in normal operation and during RTO
    recovery). [acked] is the number of newly acknowledged bytes.
    Below ssthresh both algorithms grow cwnd by [acked] (uncapped
    byte-counted slow start); above it Reno adds [mss*mss/cwnd] per
    full-MSS ACK, LIA its coupled increase, each capped at one MSS per
    ACK. *)

val on_loss : t -> window -> mss:int -> flight:int -> loss_kind -> unit
(** Standard multiplicative decrease, shared by both algorithms:
    ssthresh = max(min(flight, cwnd)/2, 2*mss); cwnd = ssthresh after
    a fast retransmit, 1 MSS after a timeout. The sender applies the
    NewReno recovery mechanics on top. *)

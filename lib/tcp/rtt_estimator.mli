(** RFC 6298 round-trip-time estimation.

    SRTT/RTTVAR smoothing with the standard gains, RTO floored at
    [min_rto] and capped at [max_rto]. Samples from retransmitted
    segments must not be fed in (Karn's algorithm) — the caller
    enforces that. *)

module Time = Sim_engine.Sim_time

type t

val create : params:Tcp_params.t -> t

val observe : t -> Time.t -> unit
(** Feed one RTT sample. *)

val srtt : t -> Time.t option
(** Smoothed RTT; [None] before the first sample. *)

val srtt_ns : t -> int
(** {!srtt} in whole ns, [-1] before the first sample: the per-ACK
    read, which allocates nothing. *)

val rttvar : t -> Time.t option
val rto : t -> Time.t
(** Current retransmission timeout (before backoff), clamped to
    [\[min_rto, max_rto\]]; [initial_rto] before the first sample. *)

val samples : t -> int

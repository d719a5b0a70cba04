(** TCP stack configuration.

    Defaults model the data-centre configuration the paper's ns-3 setup
    used: 1400-byte MSS (1440-byte wire segments), initial window of 4
    segments, and a 200 ms minimum RTO — the parameter whose
    interaction with sub-100 ms short flows produces the pathology
    MMPTCP removes. *)

module Time = Sim_engine.Sim_time

type t = {
  mss : int;  (** payload bytes per full segment *)
  initial_window : int;  (** initial congestion window, in segments *)
  min_rto : Time.t;  (** RTO floor (200 ms by default) *)
  initial_rto : Time.t;  (** RTO before the first RTT sample *)
  max_rto : Time.t;  (** RTO ceiling under exponential backoff *)
  dupack_threshold : int;  (** fast-retransmit threshold (static default) *)
  max_syn_retries : int;
  sack : bool;
      (** selective-acknowledgement loss recovery at the sender
          (receivers always advertise SACK blocks). Off by default: the
          paper-era ns-3 MPTCP models recovered with NewReno only,
          which is part of why single losses on tiny subflow windows
          were so costly. The E9 benchmark ablates this. *)
}

val default : t


module Time = Sim_engine.Sim_time

type t = {
  mss : int;
  initial_window : int;
  min_rto : Time.t;
  initial_rto : Time.t;
  max_rto : Time.t;
  dupack_threshold : int;
  max_syn_retries : int;
  sack : bool;
}

let default =
  {
    mss = 1400;
    initial_window = 4;
    min_rto = Time.of_ms 200.;
    initial_rto = Time.of_ms 200.;
    max_rto = Time.of_sec 60.;
    dupack_threshold = 3;
    max_syn_retries = 8;
    sack = false;
  }

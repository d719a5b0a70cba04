type ext = ..

type t = {
  mutable next_packet_uid : int;
  mutable next_conn_id : int;
  mutable next_queue_id : int;
  metrics : Sim_obs.Metrics.t;
  ledger : Sim_obs.Flow_ledger.t;
  mutable ext : ext option;
  mutable pool_live : int;
}

let create () =
  {
    next_packet_uid = 0;
    next_conn_id = 0;
    next_queue_id = 0;
    metrics = Sim_obs.Metrics.create ();
    ledger = Sim_obs.Flow_ledger.create ();
    ext = None;
    pool_live = 0;
  }

let fresh_packet_uid t =
  t.next_packet_uid <- t.next_packet_uid + 1;
  t.next_packet_uid

let fresh_conn_id t =
  t.next_conn_id <- t.next_conn_id + 1;
  t.next_conn_id

let fresh_queue_id t =
  t.next_queue_id <- t.next_queue_id + 1;
  t.next_queue_id

let pool_live t = t.pool_live
let pool_track t delta = t.pool_live <- t.pool_live + delta

let metrics t = t.metrics
let ledger t = t.ledger
let ext t = t.ext
let set_ext t e = t.ext <- Some e

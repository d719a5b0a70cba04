module Time = Sim_engine.Sim_time

(* The two estimates sit in an all-float record, stored flat: as
   float fields of the mixed record [t], every sample would box two
   fresh floats. *)
type est = { mutable srtt_ns : float; mutable rttvar_ns : float }

type t = {
  params : Tcp_params.t;
  est : est;
  mutable samples : int;
}

let create ~params =
  { params; est = { srtt_ns = 0.; rttvar_ns = 0. }; samples = 0 }

let observe t sample =
  let r = float_of_int (Time.to_ns sample) and e = t.est in
  if t.samples = 0 then begin
    e.srtt_ns <- r;
    e.rttvar_ns <- r /. 2.
  end
  else begin
    e.rttvar_ns <- (0.75 *. e.rttvar_ns) +. (0.25 *. Float.abs (e.srtt_ns -. r));
    e.srtt_ns <- (0.875 *. e.srtt_ns) +. (0.125 *. r)
  end;
  t.samples <- t.samples + 1

let[@inline] srtt_ns t =
  if t.samples = 0 then -1 else int_of_float t.est.srtt_ns

let srtt t =
  let ns = srtt_ns t in
  if ns < 0 then None else Some (Time.of_ns ns)

let rttvar t =
  if t.samples = 0 then None
  else Some (Time.of_ns (int_of_float t.est.rttvar_ns))

let rto t =
  if t.samples = 0 then t.params.Tcp_params.initial_rto
  else begin
    let e = t.est in
    let raw = e.srtt_ns +. Float.max 1.0 (4. *. e.rttvar_ns) in
    let raw_t = Time.of_ns (int_of_float raw) in
    Time.min t.params.Tcp_params.max_rto
      (Time.max t.params.Tcp_params.min_rto raw_t)
  end

let samples t = t.samples

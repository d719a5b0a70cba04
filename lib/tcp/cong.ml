module Time = Sim_engine.Sim_time

type window = { mutable cwnd : float; mutable ssthresh : float }

type loss_kind = Fast_retransmit | Timeout

(* Every controller write to cwnd goes through here: the window never
   drops below one MSS. Inlined, so the new value is not boxed to be
   passed in. *)
let[@inline] write_cwnd w ~mss c = w.cwnd <- Float.max c (float_of_int mss)

(* Byte-counted slow start without a per-ACK cap: a cumulative ACK
   covering n segments grows cwnd by n segments, exactly like
   per-segment ACKing would. Capping at one MSS per ACK would stall
   senders whose ACK stream is aggregated by reordering — which is the
   normal regime for the packet-scatter phase. *)
let slow_start_increase w ~mss ~acked =
  write_cwnd w ~mss (w.cwnd +. float_of_int acked)

let reno_increase w ~mss ~acked =
  if w.cwnd < w.ssthresh then slow_start_increase w ~mss ~acked
  else begin
    let mss_f = float_of_int mss in
    let cwnd = w.cwnd in
    let inc = mss_f *. mss_f /. cwnd *. (float_of_int acked /. mss_f) in
    (* Cap the per-ACK increase at one MSS, as byte-counted AIMD does. *)
    write_cwnd w ~mss (cwnd +. Float.min inc mss_f)
  end

let reno_on_loss w ~mss ~flight kind =
  let mss_f = float_of_int mss in
  (* RFC 5681 FlightSize, clamped to cwnd: NewReno window inflation can
     leave more data outstanding than cwnd, and halving from that
     inflated figure would let ssthresh ratchet upwards across
     consecutive recoveries. *)
  let flight = Float.min (float_of_int flight) w.cwnd in
  let ssthresh = Float.max (flight /. 2.) (2. *. mss_f) in
  w.ssthresh <- ssthresh;
  match kind with
  | Fast_retransmit -> write_cwnd w ~mss ssthresh
  | Timeout -> write_cwnd w ~mss mss_f

module Lia = struct
  (* Members newest first: every sum below runs in that order, so its
     float rounding is fixed by the join order. *)
  type group = { mutable members : member array }
  and member = { group : group; win : window; rtt : Rtt_estimator.t }

  let make_group () = { members = [||] }
  let subflow_count g = Array.length g.members

  let join group win rtt =
    let m = { group; win; rtt } in
    group.members <- Array.append [| m |] group.members;
    m

  (* RTT fallback before the first sample; only influences the very
     first increases of a subflow. *)
  let default_rtt_s = 1e-3

  (* These three run on every LIA ACK, once per member. Inlined into
     [on_ack], their floats stay unboxed: no allocation per ACK. *)
  let[@inline] rtt_s m =
    let ns = Rtt_estimator.srtt_ns m.rtt in
    if ns < 0 then default_rtt_s else Float.max 1e-6 (Time.to_sec (Time.of_ns ns))

  let[@inline] total_cwnd g =
    let total = ref 0. in
    for i = 0 to Array.length g.members - 1 do
      total := !total +. g.members.(i).win.cwnd
    done;
    !total

  (* The RFC 6356 coupling factor: the one place it is computed. *)
  let[@inline] alpha g =
    let n = Array.length g.members in
    let total = total_cwnd g in
    if n = 0 || total <= 0. then 1.
    else begin
      let best = ref 0. and denom = ref 0. in
      for i = 0 to n - 1 do
        let m = g.members.(i) in
        let r = rtt_s m in
        best := Float.max !best (m.win.cwnd /. (r *. r));
        denom := !denom +. (m.win.cwnd /. r)
      done;
      if !denom <= 0. then 1. else total *. !best /. (!denom *. !denom)
    end

  let on_ack m w ~mss ~acked =
    if w.cwnd < w.ssthresh then slow_start_increase w ~mss ~acked
    else begin
      let total = total_cwnd m.group in
      let a = alpha m.group in
      let mss_f = float_of_int mss in
      let acked_f = float_of_int acked in
      let coupled = a *. acked_f *. mss_f /. Float.max total mss_f in
      let uncoupled = acked_f *. mss_f /. Float.max w.cwnd mss_f in
      let inc = Float.min coupled uncoupled in
      (* Same per-ACK cap as byte-counted AIMD. *)
      write_cwnd w ~mss (w.cwnd +. Float.min inc mss_f)
    end

  (* Equilibrium rate split of a LIA-coupled connection, for the fluid
     model. With equal loss rates across paths the coupled increase
     (alpha * acked * mss / cwnd_total per subflow, halving on loss)
     drives the windows to equal sizes — [alpha] at that fixed point
     reduces to best-path fairness — so per-path throughput is
     proportional to 1/rtt_i. The weights sum to 1: the aggregate
     claims exactly one TCP-fair share when every leg crosses one
     bottleneck, and the full aggregate of its shares when the paths
     are disjoint. *)
  let fluid_weights ~rtts =
    let n = Array.length rtts in
    if n = 0 then [||]
    else begin
      let inv = Array.map (fun r -> 1. /. Float.max 1e-6 r) rtts in
      let sum = Array.fold_left ( +. ) 0. inv in
      if sum <= 0. then Array.make n (1. /. float_of_int n)
      else Array.map (fun x -> x /. sum) inv
    end
end

type algorithm = Reno | Lia of Lia.group
type t = Reno_cc | Lia_cc of Lia.member

let create algorithm w ~rtt =
  match algorithm with
  | Reno -> Reno_cc
  | Lia g -> Lia_cc (Lia.join g w rtt)

let on_ack t w ~mss ~acked =
  match t with
  | Reno_cc -> reno_increase w ~mss ~acked
  | Lia_cc m -> Lia.on_ack m w ~mss ~acked

let on_loss (_ : t) w ~mss ~flight kind = reno_on_loss w ~mss ~flight kind

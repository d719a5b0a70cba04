module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Addr = Sim_net.Addr

type source = max:int -> (int * int) option

type stats = {
  mutable segments_sent : int;
  mutable segments_rtx : int;
  mutable bytes_sent : int;
  mutable rto_events : int;
  mutable fast_rtx_events : int;
  mutable acks_received : int;
  mutable dsacks_received : int;
  mutable syn_sent : int;
}

type state = Closed | Syn_sent | Established | Failed

type recovery = Normal | Fast_recovery | Rto_recovery

type seg = {
  ssn : int;
  len : int;
  dsn : int;
  mutable sent_at : Time.t;
  mutable rtx : int;
  mutable sacked : bool;
  mutable rtx_rec : bool;  (* retransmitted during the current recovery *)
}

type t = {
  sched : Scheduler.t;
  host : Host.t;
  peer : Addr.t;
  conn : int;
  subflow : int;
  params : Tcp_params.t;
  src_port : unit -> int;
  dst_port : int;
  source : source;
  rtt : Rtt_estimator.t;
  win : Cong.window;
  cc : Cong.t;
  mutable state : state;
  mutable snd_una : int;
  mutable snd_nxt : int;
  segs : seg Queue.t;
  mutable dup_acks : int;
  mutable recovery : recovery;
  mutable recover_point : int;
  (* Re-armable RTO timer: one entry (static fire fn + state) allocated
     on first arm, then reused for the connection's whole life. *)
  mutable rto_timer : Scheduler.Timer.t option;
  mutable backoff : int;
  mutable syn_retries : int;
  dupack_threshold : unit -> int;
  on_dsack : unit -> unit;
  on_first_congestion : unit -> unit;
  mutable congestion_seen : bool;
  mutable sacked_bytes : int;  (* bytes in [segs] currently SACKed *)
  st : stats;
  m : Sim_obs.Metrics.t option;  (* [Some] only when probing this conn *)
  hist_rtt : Sim_stats.Histogram.t option;
  ledger : Sim_obs.Flow_ledger.t;  (* per-sim; every hook is one branch when off *)
}

let noop () = ()

let mss t = t.params.Tcp_params.mss
let flight t = t.snd_nxt - t.snd_una

let current_rto t =
  let base = Rtt_estimator.rto t.rtt in
  let backed =
    Time.scale base (Float.of_int (1 lsl Int.min t.backoff 16))
  in
  Time.min backed t.params.Tcp_params.max_rto

(* Dev-profile invariants: a violation names the connection and
   subflow. *)
let fail t what =
  failwith
    (Printf.sprintf "Tcp_tx: conn %d subflow %d: %s" t.conn t.subflow what)

(* After every controller call: a finite cwnd of at least one MSS, and
   an ssthresh of at least one MSS. *)
let check_window t =
  if Sim_engine.Sanitizer_mode.on then begin
    let w = t.win and mss = float_of_int (mss t) in
    if
      not
        (Float.is_finite w.Cong.cwnd
        && w.Cong.cwnd >= mss
        && w.Cong.ssthresh >= mss)
    then
      fail t
        (Printf.sprintf "window out of range (cwnd %h, ssthresh %h, mss %h)"
           w.Cong.cwnd w.Cong.ssthresh mss)
  end

let cc_on_ack t ~acked =
  Cong.on_ack t.cc t.win ~mss:(mss t) ~acked;
  check_window t

let cc_on_loss t kind =
  Cong.on_loss t.cc t.win ~mss:(mss t) ~flight:(flight t) kind;
  check_window t

let create ~host ~peer ~conn ~subflow ~params ~src_port ~dst_port ~source ~cc
    ?dupack_threshold ?(on_dsack = noop) ?(on_first_congestion = noop) () =
  let threshold =
    match dupack_threshold with
    | Some f -> f
    | None -> fun () -> params.Tcp_params.dupack_threshold
  in
  (* The registry and this subflow's id in it, when probing it. *)
  let metrics =
    let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx (Host.sched host)) in
    if Sim_obs.Metrics.want_conn m conn then
      Some (m, Printf.sprintf "c%d.s%d" conn subflow)
    else None
  in
  let hist_rtt =
    match metrics with
    | Some (m, mid) ->
      (* Data-centre RTTs: 100 µs per bucket up to 5 ms, overflow
         beyond (queue-buildup and RTO-scale outliers). *)
      Sim_obs.Metrics.histogram m ~component:"tcp_tx" ~id:mid ~name:"rtt"
        ~units:"us" ~lo:0. ~hi:5000. ~buckets:50
    | None -> None
  in
  let rtt = Rtt_estimator.create ~params in
  let win =
    {
      Cong.cwnd =
        float_of_int (params.Tcp_params.initial_window * params.Tcp_params.mss);
      ssthresh = Float.max_float /. 4.;
    }
  in
  let t =
    {
      sched = Host.sched host;
      host;
      peer;
      conn;
      subflow;
      params;
      src_port;
      dst_port;
      source;
      rtt;
      win;
      cc = Cong.create cc win ~rtt;
      state = Closed;
      snd_una = 0;
      snd_nxt = 0;
      segs = Queue.create ();
      dup_acks = 0;
      recovery = Normal;
      recover_point = 0;
      rto_timer = None;
      backoff = 0;
      syn_retries = 0;
      dupack_threshold = threshold;
      on_dsack;
      on_first_congestion;
      congestion_seen = false;
      sacked_bytes = 0;
      st =
        {
          segments_sent = 0;
          segments_rtx = 0;
          bytes_sent = 0;
          rto_events = 0;
          fast_rtx_events = 0;
          acks_received = 0;
          dsacks_received = 0;
          syn_sent = 0;
        };
      m = Option.map fst metrics;
      hist_rtt;
      ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx (Host.sched host));
    }
  in
  (match metrics with
   | Some (m, mid) ->
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"tcp_tx" ~id:mid ~name ~units read
     in
     reg "cwnd" "bytes" (fun () -> t.win.Cong.cwnd);
     reg "ssthresh" "bytes" (fun () ->
         (* The initial "infinite" ssthresh would drown real values in
            any plot; report it as 0 until congestion sets it. *)
         if t.win.Cong.ssthresh > 1e18 then 0. else t.win.Cong.ssthresh);
     reg "inflight" "bytes" (fun () -> float_of_int (t.snd_nxt - t.snd_una));
     reg "rto" "ns" (fun () -> float_of_int (Time.to_ns (current_rto t)));
     reg "srtt" "ns" (fun () ->
         match Rtt_estimator.srtt t.rtt with
         | Some s -> float_of_int (Time.to_ns s)
         | None -> 0.);
     reg "bytes_acked" "bytes" (fun () -> float_of_int t.snd_una)
   | None -> ());
  t

let cancel_rto t =
  match t.rto_timer with
  | Some tm -> Scheduler.Timer.cancel tm
  | None -> ()

let rto_pending t =
  match t.rto_timer with
  | Some tm -> Scheduler.Timer.is_pending tm
  | None -> false

let emit_segment t seg =
  t.st.segments_sent <- t.st.segments_sent + 1;
  t.st.bytes_sent <- t.st.bytes_sent + seg.len;
  Host.send t.host
    (Packet.make ~ctx:(Scheduler.ctx t.sched) ~src:(Host.addr t.host)
       ~dst:t.peer ~conn:t.conn ~subflow:t.subflow ~src_port:(t.src_port ())
       ~dst_port:t.dst_port ~seq:seg.ssn ~ack_seq:0 ~len:seg.len
       ~bits:Packet.data_bits ~dsn:seg.dsn)

let send_syn t =
  t.st.syn_sent <- t.st.syn_sent + 1;
  Host.send t.host
    (Packet.make ~ctx:(Scheduler.ctx t.sched) ~src:(Host.addr t.host)
       ~dst:t.peer ~conn:t.conn ~subflow:t.subflow ~src_port:(t.src_port ())
       ~dst_port:t.dst_port ~seq:0 ~ack_seq:0 ~len:0 ~bits:Packet.syn_bits
       ~dsn:(-1))

let first_congestion t =
  if not t.congestion_seen then begin
    t.congestion_seen <- true;
    t.on_first_congestion ()
  end

let retransmit_front t =
  match Queue.peek_opt t.segs with
  | None -> ()
  | Some seg ->
    seg.rtx <- seg.rtx + 1;
    seg.sent_at <- Scheduler.now t.sched;
    t.st.segments_rtx <- t.st.segments_rtx + 1;
    emit_segment t seg

(* Mark segments covered by the ACK's SACK blocks, read straight off
   the packet's scratch array (nothing allocated here). *)
let process_sack t (pkt : Packet.t) =
  let nblocks = pkt.Packet.sack_count in
  if t.params.Tcp_params.sack && nblocks > 0 then begin
    let blocks = pkt.Packet.sack in
    Queue.iter
      (fun seg ->
        if not seg.sacked then begin
          let covered = ref false in
          for i = 0 to nblocks - 1 do
            if
              blocks.(2 * i) <= seg.ssn
              && seg.ssn + seg.len <= blocks.((2 * i) + 1)
            then covered := true
          done;
          if !covered then begin
            seg.sacked <- true;
            t.sacked_bytes <- t.sacked_bytes + seg.len
          end
        end)
      t.segs
  end

(* Retransmit the earliest hole (unSACKed, un-retransmitted this
   recovery, below the recovery point). *)
let retransmit_next_hole t =
  let exception Done in
  try
    Queue.iter
      (fun seg ->
        if (not seg.sacked) && (not seg.rtx_rec) && seg.ssn < t.recover_point
        then begin
          seg.rtx_rec <- true;
          seg.rtx <- seg.rtx + 1;
          seg.sent_at <- Scheduler.now t.sched;
          t.st.segments_rtx <- t.st.segments_rtx + 1;
          emit_segment t seg;
          raise Done
        end)
      t.segs
  with Done -> ()

let clear_recovery_marks t =
  Queue.iter (fun seg -> seg.rtx_rec <- false) t.segs

let clear_sack_marks t =
  Queue.iter (fun seg -> seg.sacked <- false) t.segs;
  t.sacked_bytes <- 0

let rec arm_rto t =
  let tm =
    match t.rto_timer with
    | Some tm -> tm
    | None ->
      let tm = Scheduler.Timer.create t.sched on_rto t in
      t.rto_timer <- Some tm;
      tm
  in
  Scheduler.Timer.schedule_after tm (current_rto t)

and on_rto t =
  match t.state with
  | Syn_sent ->
    t.syn_retries <- t.syn_retries + 1;
    if t.syn_retries > t.params.Tcp_params.max_syn_retries then t.state <- Failed
    else begin
      t.backoff <- t.backoff + 1;
      send_syn t;
      arm_rto t
    end
  | Established when flight t > 0 ->
    t.st.rto_events <- t.st.rto_events + 1;
    Sim_obs.Flow_ledger.on_rto t.ledger ~conn:t.conn;
    (match t.m with
     | Some m ->
       Sim_obs.Metrics.emit m ~kind:"rto_fired" ~conn:t.conn
         ~subflow:t.subflow
         ~info:[ ("backoff", string_of_int t.backoff) ]
         ()
     | None -> ());
    first_congestion t;
    cc_on_loss t Cong.Timeout;
    t.dup_acks <- 0;
    t.recovery <- Rto_recovery;
    t.recover_point <- t.snd_nxt;
    t.backoff <- t.backoff + 1;
    clear_recovery_marks t;
    clear_sack_marks t;
    retransmit_front t;
    arm_rto t
  | Established | Closed | Failed -> ()

(* Allowed flight: the congestion window, plus one MSS per duplicate
   ACK while still below the fast-retransmit threshold (generalised
   limited transmit, RFC 3042): every dup ACK signals a departure, so
   the ACK clock keeps running through reordering runs. With the
   standard threshold of 3 this is plain limited transmit; with the
   scatter phase's topology-derived threshold it is what keeps a
   reordered single window from stalling. Inlined into [try_send],
   so the float it returns is not boxed. *)
let[@inline] send_allowance t =
  match t.recovery with
  | Normal ->
    t.win.Cong.cwnd +. float_of_int (t.dup_acks * t.params.Tcp_params.mss)
  | Fast_recovery when t.params.Tcp_params.sack ->
    (* Pipe accounting: SACKed bytes have left the network. *)
    t.win.Cong.cwnd +. float_of_int t.sacked_bytes
  | Fast_recovery | Rto_recovery -> t.win.Cong.cwnd

let try_send t =
  if t.state = Established then begin
    let continue = ref true in
    while !continue do
      if float_of_int (flight t) >= send_allowance t then continue := false
      else
        match t.source ~max:(mss t) with
        | None -> continue := false
        | Some (dsn, len) ->
          assert (len > 0 && len <= mss t);
          let seg =
            {
              ssn = t.snd_nxt;
              len;
              dsn;
              sent_at = Scheduler.now t.sched;
              rtx = 0;
              sacked = false;
              rtx_rec = false;
            }
          in
          Queue.push seg t.segs;
          t.snd_nxt <- t.snd_nxt + len;
          emit_segment t seg;
          if not (rto_pending t) then arm_rto t
    done
  end

let connect t =
  if t.state <> Closed then invalid_arg "Tcp_tx.connect: already started";
  t.state <- Syn_sent;
  send_syn t;
  arm_rto t

let enter_fast_recovery t =
  t.st.fast_rtx_events <- t.st.fast_rtx_events + 1;
  Sim_obs.Flow_ledger.on_fast_rtx t.ledger ~conn:t.conn;
  (match t.m with
   | Some m ->
     Sim_obs.Metrics.emit m ~kind:"fast_retransmit" ~conn:t.conn
       ~subflow:t.subflow
       ~info:[ ("dup_acks", string_of_int t.dup_acks) ]
       ()
   | None -> ());
  first_congestion t;
  cc_on_loss t Cong.Fast_retransmit;
  t.win.Cong.cwnd <- t.win.Cong.cwnd +. (3. *. float_of_int (mss t));
  t.recover_point <- t.snd_nxt;
  t.recovery <- Fast_recovery;
  clear_recovery_marks t;
  if t.params.Tcp_params.sack then retransmit_next_hole t
  else retransmit_front t;
  t.backoff <- 0;
  arm_rto t

let handle_new_ack t a =
  let newly = a - t.snd_una in
  (* Pop fully acknowledged segments, keeping the freshest candidate
     RTT sample from a never-retransmitted segment (Karn), as its
     send time in ns, -1 for none. *)
  let sample = ref (-1) in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.segs with
    | Some seg when seg.ssn + seg.len <= a ->
      ignore (Queue.pop t.segs);
      if seg.sacked then t.sacked_bytes <- t.sacked_bytes - seg.len;
      if seg.rtx = 0 then sample := Time.to_ns seg.sent_at
    | Some _ | None -> continue := false
  done;
  t.snd_una <- a;
  t.backoff <- 0;
  if !sample >= 0 then begin
    let now = Scheduler.now t.sched in
    let rtt_sample = Time.diff now (Time.of_ns !sample) in
    Rtt_estimator.observe t.rtt rtt_sample;
    match t.hist_rtt with
    | Some h ->
      Sim_stats.Histogram.add h (float_of_int (Time.to_ns rtt_sample) /. 1e3)
    | None -> ()
  end;
  (match t.recovery with
   | Fast_recovery ->
     if a >= t.recover_point then begin
       t.recovery <- Normal;
       t.win.Cong.cwnd <- Float.max t.win.Cong.ssthresh (float_of_int (mss t));
       t.dup_acks <- 0
     end
     else if t.params.Tcp_params.sack then retransmit_next_hole t
     else
       (* NewReno partial ACK: retransmit the next hole. The window
          stays at ssthresh + 3 MSS for the whole recovery (no
          inflation/deflation pair): under heavy loss the classic
          inflating variant degenerates into permanent 1-in-1-out
          conservation that pins the bottleneck queue full; holding
          the window lets the pipe drain and recovery terminate. *)
       retransmit_front t
   | Rto_recovery ->
     cc_on_ack t ~acked:newly;
     if a >= t.recover_point then begin
       t.recovery <- Normal;
       t.dup_acks <- 0
     end
     else retransmit_front t
   | Normal ->
     t.dup_acks <- 0;
     cc_on_ack t ~acked:newly);
  if flight t = 0 then cancel_rto t else arm_rto t;
  try_send t

let handle_dup_ack t =
  match t.recovery with
  | Fast_recovery when t.params.Tcp_params.sack ->
    (* SACK information identifies further holes: repair them and keep
       the pipe full under the cwnd + sacked allowance. *)
    retransmit_next_hole t;
    try_send t
  | Fast_recovery ->
    (* No window inflation (see the partial-ACK comment); new data
       flows again once enough of the pre-loss flight has drained. *)
    ()
  | Rto_recovery -> ()
  | Normal ->
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks >= t.dupack_threshold () then enter_fast_recovery t
    else try_send t

let handle t pkt =
  if Packet.syn pkt && Packet.ack pkt then begin
    (* SYN-ACK: establish (duplicates ignored). *)
    match t.state with
    | Syn_sent ->
      t.state <- Established;
      t.backoff <- 0;
      cancel_rto t;
      Sim_obs.Flow_ledger.on_handshake t.ledger ~conn:t.conn;
      try_send t
    | Closed | Established | Failed -> ()
  end
  else if Packet.ack pkt && t.state = Established then begin
    t.st.acks_received <- t.st.acks_received + 1;
    if Packet.dup_seen pkt then begin
      t.st.dsacks_received <- t.st.dsacks_received + 1;
      t.on_dsack ()
    end;
    process_sack t pkt;
    let una = t.snd_una in
    let a = pkt.Packet.ack_seq in
    if a > una then handle_new_ack t a
    else if a = una && flight t > 0 then handle_dup_ack t;
    if Sim_engine.Sanitizer_mode.on && t.snd_una < una then
      fail t (Printf.sprintf "snd_una moved back (%d -> %d)" una t.snd_una)
  end

let cwnd t = t.win.Cong.cwnd
let ssthresh t = t.win.Cong.ssthresh
let stats t = t.st

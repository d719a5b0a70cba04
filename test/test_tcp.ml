(* TCP stack tests: RTT estimation, the data plane, scripted receiver
   exchanges, and full sender/receiver behaviour over an instrumented
   two-host link with deterministic loss injection. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Link = Sim_net.Link
module Pktqueue = Sim_net.Pktqueue
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Cong = Sim_tcp.Cong
module Rtt_estimator = Sim_tcp.Rtt_estimator
module Tcp_params = Sim_tcp.Tcp_params
module Tcp_tx = Sim_tcp.Tcp_tx
module Tcp_rx = Sim_tcp.Tcp_rx
module Dataplane = Sim_tcp.Dataplane
module Flow = Sim_tcp.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Hand-built packets/queues in these tests sit outside any one
   simulation; a file-level context supplies their ids. *)
let ctx = Sim_engine.Sim_ctx.create ()

(* Raw data segment through the labelled constructor; defaults match
   what the old record literals spelled out at every site. *)
let mk_seg ?(conn = 0) ?(subflow = 0) ?(src_port = 1) ?(dst_port = 2)
    ?(seq = 0) ?(ack_seq = 0) ?(len = 100) ?(bits = Packet.data_bits) ~src
    ~dst () =
  Packet.make ~ctx ~src ~dst ~conn ~subflow ~src_port ~dst_port ~seq ~ack_seq
    ~len ~bits

(* ------------------------------------------------------------------ *)
(* RTT estimator *)

let test_rtt_first_sample () =
  let e = Rtt_estimator.create ~params:Tcp_params.default in
  check_bool "no estimate" true (Rtt_estimator.srtt e = None);
  check_int "no estimate in ns" (-1) (Rtt_estimator.srtt_ns e);
  Alcotest.(check (float 1e-6)) "initial rto is param" 200.
    (Time.to_ms (Rtt_estimator.rto e));
  Rtt_estimator.observe e (Time.of_ms 10.);
  check_int "srtt in ns" 10_000_000 (Rtt_estimator.srtt_ns e);
  (match Rtt_estimator.srtt e with
   | Some s -> Alcotest.(check (float 1e-6)) "srtt = first sample" 10. (Time.to_ms s)
   | None -> Alcotest.fail "expected estimate");
  (* rto = srtt + 4*rttvar = 10 + 4*5 = 30ms, floored at 200ms. *)
  Alcotest.(check (float 1e-6)) "rto floored" 200. (Time.to_ms (Rtt_estimator.rto e))

let test_rtt_smoothing_converges () =
  let e = Rtt_estimator.create ~params:Tcp_params.default in
  for _ = 1 to 100 do
    Rtt_estimator.observe e (Time.of_ms 50.)
  done;
  (match Rtt_estimator.srtt e with
   | Some s -> Alcotest.(check (float 0.5)) "converged" 50. (Time.to_ms s)
   | None -> Alcotest.fail "expected estimate");
  check_int "samples" 100 (Rtt_estimator.samples e)

let test_rtt_floor_and_cap () =
  let params =
    { Tcp_params.default with min_rto = Time.of_ms 1.; max_rto = Time.of_ms 5. }
  in
  let e = Rtt_estimator.create ~params in
  Rtt_estimator.observe e (Time.of_ms 100.);
  Alcotest.(check (float 1e-6)) "capped" 5. (Time.to_ms (Rtt_estimator.rto e))

let test_rtt_var_tracks_jitter () =
  let e =
    Rtt_estimator.create
      ~params:{ Tcp_params.default with min_rto = Time.of_ns 1 }
  in
  List.iter
    (fun ms -> Rtt_estimator.observe e (Time.of_ms ms))
    [ 10.; 30.; 10.; 30.; 10.; 30. ];
  match Rtt_estimator.rttvar e with
  | Some v -> check_bool "positive variance" true (Time.to_ms v > 1.)
  | None -> Alcotest.fail "expected variance"

(* ------------------------------------------------------------------ *)
(* Dataplane *)

let test_dataplane_sequential_pull () =
  let p = Dataplane.create ~size:3_000 in
  check_int "first" 1400 (Dataplane.pull p ~max:1400);
  check_int "second" 1400 (Dataplane.pull p ~max:1400);
  check_int "assigned so far" 2_800 (Dataplane.assigned p);
  check_int "tail" 200 (Dataplane.pull p ~max:1400);
  check_int "drained" 0 (Dataplane.pull p ~max:1400);
  check_int "assigned" 3_000 (Dataplane.assigned p)

(* A plane whose [size] bytes are all pulled, so any of them may be
   delivered. *)
let pulled_plane ~size =
  let p = Dataplane.create ~size in
  ignore (Dataplane.pull p ~max:size);
  p

(* [deliver] returns [true] on the delivery that completes the plane
   and on no other, a later zero-byte one included. *)
let test_dataplane_completion_once () =
  let p = pulled_plane ~size:1_000 in
  check_bool "not yet" false (Dataplane.deliver p 500);
  check_bool "completes" true (Dataplane.deliver p 500);
  check_bool "zero bytes after" false (Dataplane.deliver p 0);
  check_int "received" 1_000 (Dataplane.received_bytes p)

(* The per-segment data-level calls allocate nothing: a pull through
   a [Tcp_tx.source] closure, as a sender makes it, and a delivery.
   Slack of a few words absorbs the Gc.minor_words boxes the
   measurement itself allocates. *)
let test_dataplane_allocates_nothing () =
  let p = Dataplane.create ~size:100_000_000 in
  let source : Tcp_tx.source = Dataplane.pull p in
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    ignore (Dataplane.deliver p (source ~max:1_400))
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 64. then Alcotest.failf "pull and deliver allocated %.0f words" dw;
  check_int "received" 70_000_000 (Dataplane.received_bytes p)

(* A segment arriving twice is acknowledged twice but handed to the
   plane once: the subflow receiver is the only dedupe, and the plane
   counts the segment's bytes once. *)
let test_dataplane_duplicates () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  Host.bind src ~conn:46 ignore;
  let p = pulled_plane ~size:2_000 in
  let calls = ref 0 in
  let rx =
    Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn:46 ~subflow:0
      ~on_data:(fun len ->
        incr calls;
        ignore (Dataplane.deliver p len))
      ()
  in
  Host.bind dst ~conn:46 (Tcp_rx.handle rx);
  for _ = 1 to 2 do
    Host.send src
      (mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn:46 ~len:1000 ());
    Scheduler.run sched
  done;
  check_int "on_data once" 1 !calls;
  check_int "unique bytes only" 1000 (Dataplane.received_bytes p)

(* The plane counts bytes, not positions: chunks delivered in another
   order than pulled complete it on the last one. *)
let test_dataplane_out_of_order_delivery () =
  let p = Dataplane.create ~size:3_000 in
  let chunks = List.init 3 (fun _ -> Dataplane.pull p ~max:1_400) in
  Alcotest.(check (list bool))
    "completes on the last" [ false; false; true ]
    (List.map (Dataplane.deliver p) (List.rev chunks))

(* Bytes delivered never exceed bytes sent: in the dev profile a
   delivery that would count past what [pull] has handed out fails,
   whether its bytes were never pulled or were counted before. The
   release profile compiles the check out, so there the test is
   vacuous. *)
let test_dataplane_deliver_past_assigned () =
  let fails what ~pulled ~delivered ~len msg =
    let p = Dataplane.create ~size:3_000 in
    ignore (Dataplane.pull p ~max:pulled);
    ignore (Dataplane.deliver p delivered);
    Alcotest.check_raises what (Failure msg) (fun () ->
        ignore (Dataplane.deliver p len))
  in
  if Sim_engine.Sanitizer_mode.on then begin
    fails "bytes not yet pulled" ~pulled:1_400 ~delivered:1_400 ~len:1_400
      "Dataplane.deliver: 1400 + 1400 bytes, past the 1400 pulled";
    fails "pulled bytes delivered twice" ~pulled:3_000 ~delivered:3_000
      ~len:1_000 "Dataplane.deliver: 3000 + 1000 bytes, past the 3000 pulled"
  end

(* ------------------------------------------------------------------ *)
(* Reno on a synthetic window: a window literal and an RTT estimator
   primed with one 1 ms sample, no TCP stack behind them. The flight
   size handed to the loss response is the window itself. *)

let reno_window ~cwnd ~ssthresh =
  let w = { Cong.cwnd; ssthresh } in
  let rtt = Rtt_estimator.create ~params:Tcp_params.default in
  Rtt_estimator.observe rtt (Time.of_ms 1.);
  (w, Cong.create Cong.Reno w ~rtt)

let test_clean_window_grows () =
  let w, cc = reno_window ~cwnd:14_000. ~ssthresh:1. in
  let before = w.Cong.cwnd in
  for _ = 1 to 20 do
    Cong.on_ack cc w ~mss:1400 ~acked:1400
  done;
  check_bool "congestion avoidance grows" true (w.Cong.cwnd > before)

let test_loss_halves () =
  let w, cc = reno_window ~cwnd:20_000. ~ssthresh:1. in
  Cong.on_loss cc w ~mss:1400 ~flight:20_000 Cong.Fast_retransmit;
  Alcotest.(check (float 1e-9)) "ssthresh" 10_000. w.Cong.ssthresh;
  Alcotest.(check (float 1e-9)) "cwnd" 10_000. w.Cong.cwnd

(* ------------------------------------------------------------------ *)
(* End-to-end over an instrumented direct link *)

(* The direct topology's links: index 0 delivers to host 1 (data
   direction), index 1 delivers to host 0 (ACK direction). A filter
   re-attaches the data link through a predicate for loss injection. *)
type rig = {
  sched : Scheduler.t;
  src : Host.t;
  dst : Host.t;
}

let make_rig ?spec ?data_filter () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched ?spec () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  (match data_filter with
   | Some keep ->
     Link.attach net.Topology.links.(0) (fun pkt ->
         if keep pkt then Host.receive dst pkt)
   | None -> ());
  { sched; src; dst }

let run_flow ?(size = 70_000) ?params ?until rig =
  let f = Flow.start ~src:rig.src ~dst:rig.dst ~size ?params () in
  let horizon = match until with Some u -> u | None -> Time.of_sec 30. in
  Scheduler.run ~until:horizon rig.sched;
  f

let test_flow_completes () =
  let rig = make_rig () in
  let f = run_flow rig in
  check_bool "complete" true (Flow.is_complete f);
  check_int "all bytes" 70_000 (Flow.bytes_received f);
  check_int "no rto" 0 (Flow.rto_events f)

let test_flow_fct_reasonable () =
  (* 70 KB over 100 Mb/s with 20us one-way delay: serialisation alone
     is 5.7ms; handshake + slow start add a few RTTs. *)
  let rig = make_rig () in
  let f = run_flow rig in
  match Flow.fct f with
  | Some t ->
    check_bool "above line-rate bound" true (Time.to_ms t > 5.6);
    check_bool "below 15ms" true (Time.to_ms t < 15.)
  | None -> Alcotest.fail "flow did not complete"

let test_large_flow_near_line_rate () =
  let rig = make_rig () in
  let f = run_flow ~size:1_000_000 rig in
  match Flow.fct f with
  | Some t ->
    (* 1 MB -> 8 Mb / 100 Mb/s = 80 ms minimum on payload alone. *)
    check_bool "not faster than link" true (Time.to_ms t > 80.);
    check_bool "at least 70% efficient" true (Time.to_ms t < 120.)
  | None -> Alcotest.fail "flow did not complete"

let test_flow_zero_bytes () =
  let rig = make_rig () in
  let f = run_flow ~size:0 rig in
  check_bool "complete" true (Flow.is_complete f)

let test_flow_one_byte () =
  let rig = make_rig () in
  let f = run_flow ~size:1 rig in
  check_bool "complete" true (Flow.is_complete f);
  check_int "one byte" 1 (Flow.bytes_received f)

let test_slow_start_growth () =
  let rig = make_rig () in
  let f = Flow.start ~src:rig.src ~dst:rig.dst ~size:1_000_000 () in
  Scheduler.run ~until:(Time.of_ms 3.) rig.sched;
  let tx = Flow.tx f in
  let mss = Tcp_params.default.Tcp_params.mss in
  check_bool "cwnd grew beyond IW" true
    (Tcp_tx.cwnd tx
     > float_of_int (Tcp_params.default.Tcp_params.initial_window * mss))

(* Exact outcome of one 3 MB Reno flow through the default drop-tail
   bottleneck: [(fct_ns, dropped, max_backlog)] of the data link's
   queue. The flow overruns the 100-packet queue, so this pins the
   drop-tail path and the loss response end to end. *)
let test_drop_tail_dumbbell_pinned () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched ~spec:Topology.default_link_spec () in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:3_000_000 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  let st = Pktqueue.stats (Link.queue net.Topology.links.(0)) in
  Alcotest.(check (pair int (pair int int)))
    "fct_ns, dropped, max_backlog" (249_450_924, (104, 100))
    ( (match Flow.fct f with Some t -> Time.to_ns t | None -> -1),
      (st.Pktqueue.dropped, st.Pktqueue.max_backlog) )

let test_fast_retransmit_on_single_loss () =
  (* Drop exactly one mid-stream data segment once; the window around
     it is large enough to generate 3 dup ACKs, so recovery must use
     fast retransmit, not an RTO. *)
  let dropped = ref false in
  let keep pkt =
    if (not !dropped) && Packet.is_data pkt && pkt.Packet.seq = 14_000
    then begin
      dropped := true;
      false
    end
    else true
  in
  let rig = make_rig ~data_filter:keep () in
  let f = run_flow ~size:70_000 rig in
  check_bool "complete" true (Flow.is_complete f);
  check_bool "dropped once" true !dropped;
  let st = Tcp_tx.stats (Flow.tx f) in
  check_int "fast rtx" 1 st.Tcp_tx.fast_rtx_events;
  check_int "no rto" 0 st.Tcp_tx.rto_events

let test_rto_on_tail_loss () =
  (* Drop the very last segment: no later data means no dup ACKs, so
     only the retransmission timer can recover - the pathology behind
     the paper's Figure 1(b). *)
  let mss = Tcp_params.default.Tcp_params.mss in
  let size = 4 * mss in
  let last_seq = 3 * mss in
  let dropped = ref false in
  let keep pkt =
    if (not !dropped) && Packet.is_data pkt && pkt.Packet.seq = last_seq
    then begin
      dropped := true;
      false
    end
    else true
  in
  let rig = make_rig ~data_filter:keep () in
  let f = run_flow ~size rig in
  check_bool "complete" true (Flow.is_complete f);
  let st = Tcp_tx.stats (Flow.tx f) in
  check_int "recovered by rto" 1 st.Tcp_tx.rto_events;
  match Flow.fct f with
  | Some t -> check_bool "fct includes min_rto stall" true (Time.to_ms t >= 200.)
  | None -> Alcotest.fail "no fct"

let test_high_dupack_threshold_forces_rto () =
  (* Same mid-stream loss as the fast-retransmit test, but with a
     threshold too high to ever fire: the sender must fall back to an
     RTO. This is exactly the failure mode that hurts subflows with
     tiny windows in Figure 1(b). *)
  let dropped = ref false in
  let keep pkt =
    if (not !dropped) && Packet.is_data pkt && pkt.Packet.seq = 14_000
    then begin
      dropped := true;
      false
    end
    else true
  in
  let rig = make_rig ~data_filter:keep () in
  let params = { Tcp_params.default with Tcp_params.dupack_threshold = 1_000 } in
  let f = Flow.start ~src:rig.src ~dst:rig.dst ~size:70_000 ~params () in
  Scheduler.run ~until:(Time.of_sec 30.) rig.sched;
  check_bool "complete" true (Flow.is_complete f);
  let st = Tcp_tx.stats (Flow.tx f) in
  check_int "no fast rtx" 0 st.Tcp_tx.fast_rtx_events;
  check_int "rto instead" 1 st.Tcp_tx.rto_events

let test_syn_loss_recovered () =
  let dropped = ref false in
  let keep pkt =
    if (not !dropped) && Packet.syn pkt then begin
      dropped := true;
      false
    end
    else true
  in
  let rig = make_rig ~data_filter:keep () in
  let f = run_flow ~size:7_000 rig in
  check_bool "complete" true (Flow.is_complete f);
  let st = Tcp_tx.stats (Flow.tx f) in
  check_bool "syn retried" true (st.Tcp_tx.syn_sent >= 2);
  match Flow.fct f with
  | Some t -> check_bool "paid initial rto" true (Time.to_ms t >= 200.)
  | None -> Alcotest.fail "no fct"

let test_burst_loss_recovered () =
  (* Drop a contiguous burst of 5 segments once: NewReno partial ACKs
     must retransmit them one per RTT and finish without deadlock. *)
  let mss = Tcp_params.default.Tcp_params.mss in
  let to_drop = Hashtbl.create 8 in
  List.iter (fun i -> Hashtbl.replace to_drop (i * mss) true) [ 10; 11; 12; 13; 14 ];
  let keep pkt =
    if Packet.is_data pkt && Hashtbl.mem to_drop pkt.Packet.seq then begin
      Hashtbl.remove to_drop pkt.Packet.seq;
      false
    end
    else true
  in
  let rig = make_rig ~data_filter:keep () in
  let f = run_flow ~size:70_000 rig in
  check_bool "complete despite burst loss" true (Flow.is_complete f);
  check_int "all bytes delivered" 70_000 (Flow.bytes_received f)

(* cwnd/ssthresh pins. Each trace records [(now_ns, cwnd, ssthresh)]
   as every data segment (first transmissions and retransmissions,
   kept or dropped) reaches the loss filter, and the test pins its
   MD5: any change to the window arithmetic — slow start, congestion
   avoidance, the loss response or NewReno/SACK recovery — moves the
   digest. Floats are printed in hex, so the digest is bit-exact. *)
let cwnd_trace ?spec ?(params = Tcp_params.default) ~size drop =
  let tx = ref None and clock = ref None in
  let samples = ref [] in
  let keep pkt =
    (match (!tx, !clock) with
     | Some tx, Some sched when Packet.is_data pkt ->
       samples :=
         (Time.to_ns (Scheduler.now sched), Tcp_tx.cwnd tx, Tcp_tx.ssthresh tx)
         :: !samples
     | _ -> ());
    not (drop pkt)
  in
  let rig = make_rig ?spec ~data_filter:keep () in
  clock := Some rig.sched;
  let f = Flow.start ~src:rig.src ~dst:rig.dst ~size ~params () in
  tx := Some (Flow.tx f);
  Scheduler.run ~until:(Time.of_sec 30.) rig.sched;
  check_bool "complete" true (Flow.is_complete f);
  let samples = List.rev !samples in
  let b = Buffer.create 4096 in
  List.iter (fun (t, c, s) -> Printf.bprintf b "%d %h %h\n" t c s) samples;
  (f, samples, Digest.to_hex (Digest.string (Buffer.contents b)))

(* Drop each listed sequence number once. *)
let drop_once seqs =
  let pending = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace pending s ()) seqs;
  fun pkt ->
    Packet.is_data pkt
    && Hashtbl.mem pending pkt.Packet.seq
    && (Hashtbl.remove pending pkt.Packet.seq; true)

let mss_f = float_of_int Tcp_params.default.Tcp_params.mss

let test_cwnd_trace_fast_retransmit () =
  let f, samples, digest = cwnd_trace ~size:70_000 (drop_once [ 14_000 ]) in
  check_int "fast rtx" 1 (Tcp_tx.stats (Flow.tx f)).Tcp_tx.fast_rtx_events;
  check_bool "cwnd = ssthresh + 3 mss in recovery" true
    (List.exists (fun (_, c, s) -> c = s +. (3. *. mss_f)) samples);
  Alcotest.(check string) "trace md5" "bf1c29ed874fbb6b7669b934c42c0f4c" digest

let test_cwnd_trace_tail_rto () =
  let mss = Tcp_params.default.Tcp_params.mss in
  let f, samples, digest = cwnd_trace ~size:(4 * mss) (drop_once [ 3 * mss ]) in
  check_int "rto" 1 (Tcp_tx.stats (Flow.tx f)).Tcp_tx.rto_events;
  check_bool "cwnd = 1 mss after the rto" true
    (List.exists (fun (_, c, _) -> c = mss_f) samples);
  Alcotest.(check string) "trace md5" "1972291dc9b13a0c29f429deed134a15" digest

let test_cwnd_trace_sack_burst () =
  let mss = Tcp_params.default.Tcp_params.mss in
  let spec = { Topology.default_link_spec with Topology.delay = Time.of_ms 2. } in
  let f, _, digest =
    cwnd_trace ~spec
      ~params:{ Tcp_params.default with Tcp_params.sack = true }
      ~size:140_000
      (drop_once (List.map (fun i -> i * mss) [ 10; 11; 12; 13; 14 ]))
  in
  check_int "one recovery" 1 (Tcp_tx.stats (Flow.tx f)).Tcp_tx.fast_rtx_events;
  Alcotest.(check string) "trace md5" "29c2dd00d6c9679015db4252d04276c0" digest

let test_random_loss_delivery =
  QCheck.Test.make ~name:"flow completes under random loss" ~count:25
    QCheck.(pair small_int (int_range 1 15))
    (fun (seed, percent) ->
      let rng = Sim_engine.Rng.create ~seed in
      let keep pkt =
        (* Handshake losses are covered separately; dropping only data
           keeps the property fast. *)
        if Packet.is_data pkt then Sim_engine.Rng.int rng 100 >= percent
        else true
      in
      let rig = make_rig ~data_filter:keep () in
      let f = run_flow ~size:30_000 ~until:(Time.of_sec 120.) rig in
      Flow.is_complete f && Flow.bytes_received f = 30_000)

let test_receiver_dup_seen_flag () =
  (* Deliver the same segment twice through a raw receiver and check
     the DSACK-style signal on the second ACK. *)
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  (* Record the flag at delivery time: the packet itself returns to the
     pool once the host handler finishes, so it must not be retained. *)
  let acks = ref [] in
  Host.bind src ~conn:42 (fun pkt -> acks := Packet.dup_seen pkt :: !acks);
  let rx =
    Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn:42 ~subflow:0
      ~on_data:(fun _ -> ())
      ()
  in
  Host.bind dst ~conn:42 (Tcp_rx.handle rx);
  let make_seg () =
    mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn:42 ~len:1000 ()
  in
  Host.send src (make_seg ());
  Scheduler.run sched;
  Host.send src (make_seg ());
  Scheduler.run sched;
  match List.rev !acks with
  | [ first; second ] ->
    check_bool "first ack clean" false first;
    check_bool "second ack flags duplicate" true second
  | _ -> Alcotest.fail "expected exactly two ACKs"

let test_receiver_reordering () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  let acks = ref [] and sacks = ref [] in
  Host.bind src ~conn:43 (fun pkt ->
      acks := (pkt.Packet.ack_seq, pkt.Packet.dst_port) :: !acks;
      sacks := Packet.sack_blocks pkt);
  let rx =
    Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn:43 ~subflow:0
      ~on_data:(fun _ -> ())
      ()
  in
  Host.bind dst ~conn:43 (Tcp_rx.handle rx);
  (* Each segment on its own source port, as MMPTCP's scatter sender
     sends them: every ACK must come back on its segment's port. *)
  let port seq = 1_000 + seq in
  let seg seq =
    mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn:43
      ~src_port:(port seq) ~seq ()
  in
  (* Arrivals: 0, 200 (hole at 100), 100 (fills). Cumulative ACKs must
     be 100, 100 (dup, sent at once), 300: one per segment. *)
  Host.send src (seg 0);
  Scheduler.run sched;
  Host.send src (seg 200);
  Scheduler.run sched;
  Alcotest.(check (list (pair int int)))
    "held back by hole" [ (200, 300) ] !sacks;
  Host.send src (seg 100);
  Scheduler.run sched;
  Alcotest.(check (list (pair int int)))
    "cumulative acks on each segment's port"
    [ (100, port 0); (100, port 200); (300, port 100) ]
    (List.rev !acks);
  check_int "rcv_nxt" 300 (Tcp_rx.rcv_nxt rx)

(* The bool-array reference of the receiver properties: [mark cov s e]
   covers bytes [s, e) and returns how many were not covered yet. *)
let mark cov s e =
  let fresh = ref 0 in
  for i = s to e - 1 do
    if not cov.(i) then begin
      incr fresh;
      cov.(i) <- true
    end
  done;
  !fresh

(* A scripted peer for one receiver: each step is an arrival [(seq,
   len)] and the one reply it must draw, as (cumulative ACK, SACK
   blocks, DUP bit). *)
let play_receiver_script steps =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  let replies = ref [] in
  Host.bind src ~conn:49 (fun pkt ->
      replies :=
        (pkt.Packet.ack_seq, Packet.sack_blocks pkt, Packet.dup_seen pkt)
        :: !replies);
  let rx =
    Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn:49 ~subflow:0
      ~on_data:(fun _ -> ())
      ()
  in
  Host.bind dst ~conn:49 (Tcp_rx.handle rx);
  List.iter
    (fun ((seq, len), reply) ->
      replies := [];
      Host.send src
        (mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn:49 ~seq ~len
           ());
      Scheduler.run sched;
      Alcotest.(check (list (triple int (list (pair int int)) bool)))
        (Printf.sprintf "reply to [%d, %d)" seq (seq + len))
        [ reply ] !replies)
    steps

let seg100 seq = (seq, 100)

let test_script_first_arrival_out_of_order () =
  play_receiver_script
    [
      (seg100 100, (0, [ (100, 200) ], false));
      (seg100 0, (200, [], false));
    ]

let test_script_four_holes () =
  (* Four out-of-order spans: only the lowest three are sent, and the
     fourth shows once the lowest is absorbed. *)
  play_receiver_script
    [
      (seg100 100, (0, [ (100, 200) ], false));
      (seg100 300, (0, [ (100, 200); (300, 400) ], false));
      (seg100 500, (0, [ (100, 200); (300, 400); (500, 600) ], false));
      (seg100 700, (0, [ (100, 200); (300, 400); (500, 600) ], false));
      (seg100 0, (200, [ (300, 400); (500, 600); (700, 800) ], false));
    ]

let test_script_fill_absorbs_two_spans () =
  (* A whole segment that fills the hole above the cumulative ACK can
     reach only the span right after it, so the two spans are joined
     first, by the segment between them, and one fill then absorbs
     both. *)
  play_receiver_script
    [
      (seg100 0, (100, [], false));
      (seg100 200, (100, [ (200, 300) ], false));
      ((400, 200), (100, [ (200, 300); (400, 600) ], false));
      (seg100 300, (100, [ (200, 600) ], false));
      (seg100 100, (600, [], false));
    ]

let test_script_duplicate_in_span () =
  play_receiver_script
    [
      (seg100 0, (100, [], false));
      (seg100 200, (100, [ (200, 300) ], false));
      (seg100 300, (100, [ (200, 400) ], false));
      (seg100 300, (100, [ (200, 400) ], true));
      (seg100 200, (100, [ (200, 400) ], true));
      (seg100 100, (400, [], false));
    ]

let test_script_duplicate_below_rcv_nxt () =
  play_receiver_script
    [
      (seg100 0, (100, [], false));
      (seg100 100, (200, [], false));
      (seg100 0, (200, [], true));
      (seg100 300, (200, [ (300, 400) ], false));
      (seg100 100, (200, [ (300, 400) ], true));
    ]

(* Random whole-segment histories, reordered and duplicated, through
   one receiver, against a bool array of the bytes received. After
   every arrival [ok] is asked about it, given whether [on_data] fired,
   whether the segment was new by the reference, the reference's first
   uncovered byte, the receiver's [rcv_nxt], the reply (cumulative
   ACK, SACK blocks, DUP bit) and [runs i k], the first [k] maximal
   covered runs from byte [i]. *)
let receiver_reference_prop ~name ok =
  QCheck.Test.make ~name ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 16) (int_range 1 300))
        (list (int_bound 40)))
    (fun (lens, picks) ->
      let sched = Scheduler.create () in
      let net = Dumbbell.direct ~sched () in
      let src = Topology.host net 0 and dst = Topology.host net 1 in
      let conn = 50 in
      let reply = ref (-1, [], false) and fired = ref false in
      Host.bind src ~conn (fun pkt ->
          reply :=
            (pkt.Packet.ack_seq, Packet.sack_blocks pkt, Packet.dup_seen pkt));
      let rx =
        Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn ~subflow:0
          ~on_data:(fun _ -> fired := true)
          ()
      in
      Host.bind dst ~conn (Tcp_rx.handle rx);
      let segs = Array.of_list lens in
      let n = Array.length segs in
      let starts = Array.make (n + 1) 0 in
      Array.iteri (fun i len -> starts.(i + 1) <- starts.(i) + len) segs;
      let cov = Array.make starts.(n) false in
      let rec uncovered i =
        if i < starts.(n) && cov.(i) then uncovered (i + 1) else i
      in
      let rec runs i k =
        if k = 0 || i >= starts.(n) then []
        else if not cov.(i) then runs (i + 1) k
        else
          let j = ref i in
          while !j < starts.(n) && cov.(!j) do
            incr j
          done;
          (i, !j) :: runs !j (k - 1)
      in
      List.for_all
        (fun pick ->
          let k = pick mod n in
          let seq = starts.(k) and len = segs.(k) in
          fired := false;
          Host.send src
            (mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn ~seq ~len
               ());
          Scheduler.run sched;
          let fresh = mark cov seq (seq + len) > 0 in
          ok ~fired:!fired ~fresh ~nxt:(uncovered 0)
            ~rcv_nxt:(Tcp_rx.rcv_nxt rx) ~reply:!reply ~runs)
        picks)

(* The receiver's intervals of received bytes: [on_data] fires and the
   DUP bit is clear iff the segment was new, and the ACK's SACK blocks
   are the first three maximal covered runs above the first uncovered
   byte. *)
let prop_intervals_match_reference =
  receiver_reference_prop ~name:"intervals match boolean-array reference"
    (fun ~fired ~fresh ~nxt ~rcv_nxt:_ ~reply:(_, sacks, dup) ~runs ->
      fired = fresh && dup = not fresh
      && sacks = runs nxt Packet.max_sack_blocks)

(* The contiguous prefix: [rcv_nxt] and the cumulative ACK are the
   first uncovered byte. *)
let prop_intervals_contiguous_matches_reference =
  receiver_reference_prop ~name:"contiguous_from matches reference"
    (fun ~fired:_ ~fresh:_ ~nxt ~rcv_nxt ~reply:(ack, _, _) ~runs:_ ->
      rcv_nxt = nxt && ack = nxt)

(* Random arrival histories, reordered and duplicated, of segments
   spread over several subflows, played through one receiver per
   subflow into one plane. Each segment is a chunk [Dataplane.pull]
   handed out, at the next sequence number of its subflow, as the
   sender lays them out. A bool array over the flow's bytes is the
   reference, each chunk at the offset {!Dataplane.assigned} read
   before its pull: after every arrival the plane's byte count equals
   the reference's coverage, and the plane completes on the arrival
   that completes the reference. The history ends with every segment
   once, in reverse order, so most cases complete. *)
let prop_receivers_deliver_each_byte_once =
  QCheck.Test.make ~name:"receivers deliver each data byte once" ~count:200
    QCheck.(
      triple (int_range 1 4)
        (list_of_size Gen.(int_range 1 12)
           (pair (int_range 1 1_400) (int_bound 3)))
        (list small_nat))
    (fun (subflows, chunks, picks) ->
      let sched = Scheduler.create () in
      let net = Dumbbell.direct ~sched () in
      let src = Topology.host net 0 and dst = Topology.host net 1 in
      let conn = 48 in
      let arrival = ref 0 and completed = ref None in
      let size = List.fold_left (fun a (len, _) -> a + len) 0 chunks in
      let p = Dataplane.create ~size in
      let next_ssn = Array.make subflows 0 in
      let segs =
        Array.of_list
          (List.map
             (fun (len, sf) ->
               let sf = sf mod subflows in
               let off = Dataplane.assigned p in
               let len = Dataplane.pull p ~max:len in
               let ssn = next_ssn.(sf) in
               next_ssn.(sf) <- ssn + len;
               (sf, ssn, off, len))
             chunks)
      in
      let rxs =
        Array.init subflows (fun i ->
            Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn ~subflow:i
              ~on_data:(fun len ->
                if Dataplane.deliver p len then completed := Some !arrival)
              ())
      in
      Host.bind src ~conn ignore;
      Host.bind dst ~conn (fun pkt ->
          Tcp_rx.handle rxs.(pkt.Packet.subflow) pkt);
      let n = Array.length segs in
      let history =
        List.map (fun k -> k mod n) picks @ List.init n (fun k -> n - 1 - k)
      in
      let reference = Array.make size false in
      let covered = ref 0 and ref_completed = ref None in
      List.for_all
        (fun k ->
          incr arrival;
          let sf, ssn, off, len = segs.(k) in
          Host.send src
            (mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn
               ~subflow:sf ~seq:ssn ~len ());
          Scheduler.run sched;
          covered :=
            !covered + mark reference off (off + len);
          if !covered = size && !ref_completed = None then
            ref_completed := Some !arrival;
          Dataplane.received_bytes p = !covered)
        history
      && !completed = !ref_completed)

(* Each segment keeps its range for life, so an arrival is wholly new
   or wholly a duplicate, and in the dev profile a partly new one
   fails. The release profile compiles the check out, so there the
   test is vacuous. *)
let test_receiver_partial_overlap_fails () =
  if Sim_engine.Sanitizer_mode.on then begin
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched () in
    let src = Topology.host net 0 and dst = Topology.host net 1 in
    Host.bind src ~conn:47 ignore;
    let rx =
      Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn:47 ~subflow:0
        ~on_data:(fun _ -> ())
        ()
    in
    Host.bind dst ~conn:47 (Tcp_rx.handle rx);
    let seg seq =
      mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn:47 ~seq ~len:1000
        ()
    in
    Host.send src (seg 0);
    Scheduler.run sched;
    Host.send src (seg 500);
    Alcotest.check_raises "partly new"
      (Failure "Tcp_rx: conn 47 subflow 0: segment [500, 1500) is 500 bytes new")
      (fun () -> Scheduler.run sched)
  end

(* ------------------------------------------------------------------ *)
(* SACK *)

let sack_params = { Tcp_params.default with Tcp_params.sack = true }

let drop_burst_filter segs =
  let to_drop = Hashtbl.create 8 in
  let mss = Tcp_params.default.Tcp_params.mss in
  List.iter (fun i -> Hashtbl.replace to_drop (i * mss) true) segs;
  fun pkt ->
    if Packet.is_data pkt && Hashtbl.mem to_drop pkt.Packet.seq then begin
      Hashtbl.remove to_drop pkt.Packet.seq;
      false
    end
    else true

let test_sack_flow_completes_clean () =
  let rig = make_rig () in
  let f =
    Flow.start ~src:rig.src ~dst:rig.dst ~size:70_000 ~params:sack_params ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) rig.sched;
  check_bool "complete" true (Flow.is_complete f);
  check_int "no rtx at all" 0 (Tcp_tx.stats (Flow.tx f)).Tcp_tx.segments_rtx

let test_sack_recovers_burst_in_one_recovery () =
  (* A 5-segment burst loss: NewReno needs one RTT per hole; SACK
     repairs all holes within a single fast-recovery episode and
     without any RTO. A 2 ms propagation delay makes the per-hole RTT
     cost visible. *)
  let spec = { Topology.default_link_spec with Topology.delay = Time.of_ms 2. } in
  let run params =
    let rig =
      make_rig ~spec ~data_filter:(drop_burst_filter [ 10; 11; 12; 13; 14 ]) ()
    in
    let f = Flow.start ~src:rig.src ~dst:rig.dst ~size:140_000 ~params () in
    Scheduler.run ~until:(Time.of_sec 30.) rig.sched;
    check_bool "complete" true (Flow.is_complete f);
    let st = Tcp_tx.stats (Flow.tx f) in
    (Option.get (Flow.fct f), st.Tcp_tx.rto_events, st.Tcp_tx.fast_rtx_events)
  in
  let fct_sack, rto_sack, fr_sack = run sack_params in
  let fct_newreno, _, _ = run Tcp_params.default in
  check_int "no rto with sack" 0 rto_sack;
  check_int "single recovery episode" 1 fr_sack;
  check_bool
    (Printf.sprintf "sack faster than newreno (%.1f vs %.1f ms)"
       (Time.to_ms fct_sack) (Time.to_ms fct_newreno))
    true
    (Time.to_ms fct_sack < Time.to_ms fct_newreno)

let test_sack_random_loss_property =
  QCheck.Test.make ~name:"sack flow completes under random loss" ~count:20
    QCheck.(pair small_int (int_range 1 15))
    (fun (seed, percent) ->
      let rng = Sim_engine.Rng.create ~seed in
      let keep pkt =
        if Packet.is_data pkt then Sim_engine.Rng.int rng 100 >= percent
        else true
      in
      let rig = make_rig ~data_filter:keep () in
      let f =
        Flow.start ~src:rig.src ~dst:rig.dst ~size:50_000 ~params:sack_params ()
      in
      Scheduler.run ~until:(Time.of_sec 120.) rig.sched;
      Flow.is_complete f && Flow.bytes_received f = 50_000)

let test_receiver_advertises_sack_blocks () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  let sacks = ref [] in
  (* [sack_blocks] copies out of the packet's scratch array, so the
     list stays valid after the packet returns to the pool. *)
  Host.bind src ~conn:45 (fun pkt -> sacks := Packet.sack_blocks pkt :: !sacks);
  let rx =
    Tcp_rx.create ~host:dst ~peer:(Host.addr src) ~conn:45 ~subflow:0
      ~on_data:(fun _ -> ())
      ()
  in
  Host.bind dst ~conn:45 (Tcp_rx.handle rx);
  let seg seq =
    mk_seg ~src:(Host.addr src) ~dst:(Host.addr dst) ~conn:45 ~seq ()
  in
  Host.send src (seg 0);
  Scheduler.run sched;
  Host.send src (seg 200);
  Scheduler.run sched;
  Host.send src (seg 400);
  Scheduler.run sched;
  (match !sacks with
   | last :: _ ->
     Alcotest.(check (list (pair int int))) "two blocks" [ (200, 300); (400, 500) ] last
   | [] -> Alcotest.fail "no acks");
  match List.rev !sacks with
  | first :: _ ->
    Alcotest.(check (list (pair int int))) "in-order ack has no blocks" [] first
  | [] -> Alcotest.fail "no acks"

let test_two_flows_share_link_fairly () =
  let sched = Scheduler.create () in
  let net = Dumbbell.create ~sched ~pairs:2 () in
  let f1 =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 2)
      ~size:1_000_000 ()
  in
  let f2 =
    Flow.start ~src:(Topology.host net 1) ~dst:(Topology.host net 3)
      ~size:1_000_000 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "both complete" true (Flow.is_complete f1 && Flow.is_complete f2);
  let t1 = Time.to_ms (Option.get (Flow.fct f1)) in
  let t2 = Time.to_ms (Option.get (Flow.fct f2)) in
  (* 2 MB total through a 100 Mb/s bottleneck: the later finisher
     cannot beat ~160 ms, and neither flow can beat its own 1 MB
     serialisation time. *)
  check_bool "capacity bound" true (Float.max t1 t2 > 155.);
  check_bool "f1 above serialisation bound" true (t1 > 80.);
  check_bool "f2 above serialisation bound" true (t2 > 80.)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_tcp"
    [
      ( "rtt",
        [
          Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
          Alcotest.test_case "smoothing converges" `Quick test_rtt_smoothing_converges;
          Alcotest.test_case "floor and cap" `Quick test_rtt_floor_and_cap;
          Alcotest.test_case "variance tracks jitter" `Quick test_rtt_var_tracks_jitter;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "sequential pull" `Quick test_dataplane_sequential_pull;
          Alcotest.test_case "completion once" `Quick test_dataplane_completion_once;
          Alcotest.test_case "pull and deliver allocate nothing" `Quick
            test_dataplane_allocates_nothing;
          Alcotest.test_case "duplicates" `Quick test_dataplane_duplicates;
          Alcotest.test_case "out of order" `Quick test_dataplane_out_of_order_delivery;
          Alcotest.test_case "deliver past assigned" `Quick
            test_dataplane_deliver_past_assigned;
        ] );
      ( "window",
        [
          Alcotest.test_case "clean window grows" `Quick test_clean_window_grows;
          Alcotest.test_case "loss halves" `Quick test_loss_halves;
        ] );
      ( "flow",
        [
          Alcotest.test_case "completes" `Quick test_flow_completes;
          Alcotest.test_case "fct reasonable" `Quick test_flow_fct_reasonable;
          Alcotest.test_case "near line rate" `Quick test_large_flow_near_line_rate;
          Alcotest.test_case "zero bytes" `Quick test_flow_zero_bytes;
          Alcotest.test_case "one byte" `Quick test_flow_one_byte;
          Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
          Alcotest.test_case "drop-tail dumbbell pinned" `Quick
            test_drop_tail_dumbbell_pinned;
        ] );
      ( "loss-recovery",
        [
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit_on_single_loss;
          Alcotest.test_case "rto on tail loss" `Quick test_rto_on_tail_loss;
          Alcotest.test_case "high threshold forces rto" `Quick
            test_high_dupack_threshold_forces_rto;
          Alcotest.test_case "syn loss" `Quick test_syn_loss_recovered;
          Alcotest.test_case "burst loss" `Quick test_burst_loss_recovered;
          qt test_random_loss_delivery;
        ] );
      ( "cwnd-trace",
        [
          Alcotest.test_case "fast retransmit" `Quick test_cwnd_trace_fast_retransmit;
          Alcotest.test_case "tail loss rto" `Quick test_cwnd_trace_tail_rto;
          Alcotest.test_case "sack burst loss" `Quick test_cwnd_trace_sack_burst;
        ] );
      ( "intervals",
        [
          qt prop_intervals_match_reference;
          qt prop_intervals_contiguous_matches_reference;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "dup_seen flag" `Quick test_receiver_dup_seen_flag;
          Alcotest.test_case "reordering" `Quick test_receiver_reordering;
          Alcotest.test_case "script: first arrival out of order" `Quick
            test_script_first_arrival_out_of_order;
          Alcotest.test_case "script: four holes" `Quick test_script_four_holes;
          Alcotest.test_case "script: fill absorbs two joined spans" `Quick
            test_script_fill_absorbs_two_spans;
          Alcotest.test_case "script: duplicate in span" `Quick
            test_script_duplicate_in_span;
          Alcotest.test_case "script: duplicate below rcv_nxt" `Quick
            test_script_duplicate_below_rcv_nxt;
          qt prop_receivers_deliver_each_byte_once;
          Alcotest.test_case "partial overlap fails" `Quick
            test_receiver_partial_overlap_fails;
        ] );
      ( "sack",
        [
          Alcotest.test_case "clean flow" `Quick test_sack_flow_completes_clean;
          Alcotest.test_case "burst in one recovery" `Quick test_sack_recovers_burst_in_one_recovery;
          Alcotest.test_case "receiver advertises blocks" `Quick test_receiver_advertises_sack_blocks;
          qt test_sack_random_loss_property;
        ] );
      ( "fairness",
        [ Alcotest.test_case "two flows share" `Quick test_two_flows_share_link_fairly ] );
    ]

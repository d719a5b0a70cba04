(* MPTCP tests: LIA coupling maths and full multipath connections
   ({!Flow.start_mptcp}) over reference topologies. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Fattree = Sim_net.Fattree
module Multihomed = Sim_net.Multihomed
module Cong = Sim_tcp.Cong
module Lia = Sim_tcp.Cong.Lia
module Rtt_estimator = Sim_tcp.Rtt_estimator
module Tcp_params = Sim_tcp.Tcp_params
module Flow = Sim_tcp.Flow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A synthetic subflow for exercising controllers without a TCP stack
   behind it: a window literal and an RTT estimator primed with one
   sample, joined to a LIA group. The flight size handed to the loss
   response is the window itself. *)
let mss = 1400

let fake_subflow ?(cwnd = 14_000.) ?(ssthresh = 7_000.) ?(rtt_ms = 1.) g =
  let w = { Cong.cwnd; ssthresh } in
  let rtt = Rtt_estimator.create ~params:Tcp_params.default in
  Rtt_estimator.observe rtt (Time.of_ms rtt_ms);
  (w, Cong.create (Cong.Lia g) w ~rtt)

let ack (w, cc) = Cong.on_ack cc w ~mss ~acked:1400

let loss (w, cc) kind =
  Cong.on_loss cc w ~mss ~flight:(int_of_float w.Cong.cwnd) kind

(* ------------------------------------------------------------------ *)
(* LIA *)

let test_lia_alpha_empty () =
  let g = Lia.make_group () in
  Alcotest.(check (float 1e-9)) "empty group" 1. (Lia.alpha g)

let test_lia_alpha_symmetric () =
  (* Two identical subflows: alpha = total * (c/r^2) / (2c/r)^2 = 1/2. *)
  let g = Lia.make_group () in
  ignore (fake_subflow g);
  ignore (fake_subflow g);
  check_int "count" 2 (Lia.subflow_count g);
  Alcotest.(check (float 1e-9)) "alpha" 0.5 (Lia.alpha g)

let test_lia_alpha_n_symmetric () =
  (* n identical subflows: alpha = 1/n, so the aggregate grows like one
     TCP - the design goal of LIA. *)
  let g = Lia.make_group () in
  for _ = 1 to 8 do
    ignore (fake_subflow g)
  done;
  Alcotest.(check (float 1e-9)) "alpha 1/8" 0.125 (Lia.alpha g)

let test_lia_increase_capped_by_uncoupled () =
  (* In congestion avoidance the coupled increase can never exceed what
     a standalone TCP would do on the same subflow. *)
  let g = Lia.make_group () in
  let ((w1, _) as s1) = fake_subflow ~cwnd:14_000. ~ssthresh:7_000. g in
  ignore (fake_subflow ~cwnd:140_000. ~ssthresh:7_000. g);
  let before = w1.Cong.cwnd in
  ack s1;
  let coupled_inc = w1.Cong.cwnd -. before in
  (* Standalone byte-counted AIMD would add mss*mss/cwnd = 140 bytes. *)
  check_bool "capped" true (coupled_inc <= 140. +. 1e-9);
  check_bool "positive" true (coupled_inc > 0.)

let test_lia_slow_start_uncoupled () =
  let g = Lia.make_group () in
  let ((w, _) as s) = fake_subflow ~cwnd:2_800. ~ssthresh:100_000. g in
  ack s;
  Alcotest.(check (float 1e-9)) "slow start adds acked" 4_200. w.Cong.cwnd

let test_lia_loss_halves () =
  let g = Lia.make_group () in
  let ((w, _) as s) = fake_subflow ~cwnd:14_000. ~ssthresh:100_000. g in
  loss s Cong.Fast_retransmit;
  Alcotest.(check (float 1e-9)) "ssthresh = flight/2" 7_000. w.Cong.ssthresh;
  Alcotest.(check (float 1e-9)) "cwnd = ssthresh" 7_000. w.Cong.cwnd;
  loss s Cong.Timeout;
  Alcotest.(check (float 1e-9)) "timeout collapses to 1 mss" 1_400. w.Cong.cwnd

let test_lia_shifts_away_from_congested () =
  (* A subflow with a much larger RTT (a congested path) should receive
     a smaller coupled increase than the fast subflow. *)
  let g = Lia.make_group () in
  let ((wf, _) as f) = fake_subflow ~cwnd:14_000. ~ssthresh:1. ~rtt_ms:0.5 g in
  let ((ws, _) as s) = fake_subflow ~cwnd:14_000. ~ssthresh:1. ~rtt_ms:10. g in
  let f0 = wf.Cong.cwnd and s0 = ws.Cong.cwnd in
  for _ = 1 to 10 do
    ack f;
    ack s
  done;
  (* Both windows are equal, so per-ack increases are equal; but the
     fast path gets 20x more ACKs per unit time in reality. Here we
     check the per-ack increase at least does not favour the slow
     path. *)
  check_bool "no bias to congested path" true
    (wf.Cong.cwnd -. f0 >= ws.Cong.cwnd -. s0 -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Connections *)

let test_mptcp_completes_direct () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let c =
    Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:70_000 ~subflows:4 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete c);
  check_int "bytes" 70_000 (Flow.bytes_received c);
  check_int "subflows" 4 (Flow.subflow_count c)

let test_mptcp_completes_fattree () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  let c =
    Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 20)
      ~size:200_000 ~subflows:8 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete c);
  check_int "bytes" 200_000 (Flow.bytes_received c)

let test_mptcp_single_subflow_close_to_tcp () =
  let run_mptcp () =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched () in
    let c =
      Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:100_000 ~subflows:1 ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    Option.get (Flow.fct c)
  in
  let run_tcp () =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched () in
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:100_000 ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    Option.get (Flow.fct f)
  in
  let tm = Time.to_ms (run_mptcp ()) and tt = Time.to_ms (run_tcp ()) in
  check_bool "within 10%" true (Float.abs (tm -. tt) /. tt < 0.1)

let test_mptcp_multihomed_beats_tcp () =
  (* On a dual-homed fat-tree an 8-subflow connection can use both host
     NICs; single-path TCP cannot. This is the Roadmap claim about
     multi-homed topologies. *)
  let size = 4_000_000 in
  let run_proto n_subflows =
    let sched = Scheduler.create () in
    let net =
      Multihomed.create ~sched (Multihomed.default_params ~k:4 ~oversub:1 ())
    in
    let c =
      Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 12)
        ~size ~subflows:n_subflows ()
    in
    Scheduler.run ~until:(Time.of_sec 30.) sched;
    (Flow.is_complete c, Option.map Time.to_ms (Flow.fct c))
  in
  let ok8, t8 = run_proto 8 in
  let ok1, t1 = run_proto 1 in
  check_bool "both complete" true (ok8 && ok1);
  match (t8, t1) with
  | Some t8, Some t1 -> check_bool "8 subflows faster" true (t8 < t1 *. 0.8)
  | _ -> Alcotest.fail "missing fct"

let test_mptcp_uncoupled_runs () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let c =
    Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:50_000 ~subflows:4 ~coupled:false ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete c);
  check_bool "no lia alpha" true (Flow.lia_alpha c = None)

let test_mptcp_random_loss_property =
  QCheck.Test.make ~name:"mptcp completes under random loss" ~count:15
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, percent) ->
      let sched = Scheduler.create () in
      let net = Dumbbell.direct ~sched () in
      let rng = Sim_engine.Rng.create ~seed in
      (* Drop data packets on the forward link with the given
         probability. *)
      Sim_net.Link.attach net.Topology.links.(0) (fun pkt ->
          if
            (not (Sim_net.Packet.is_data pkt))
            || Sim_engine.Rng.int rng 100 >= percent
          then Sim_net.Host.receive (Topology.host net 1) pkt);
      let c =
        Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
          ~size:50_000 ~subflows:4 ()
      in
      Scheduler.run ~until:(Time.of_sec 200.) sched;
      Flow.is_complete c && Flow.bytes_received c = 50_000)

let test_mptcp_invalid_subflows () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  Alcotest.check_raises "zero subflows"
    (Invalid_argument "Flow.start_mptcp: subflows must be >= 1") (fun () ->
      ignore
        (Flow.start_mptcp ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
           ~size:1 ~subflows:0 ()))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "mptcp"
    [
      ( "lia",
        [
          Alcotest.test_case "alpha empty" `Quick test_lia_alpha_empty;
          Alcotest.test_case "alpha symmetric" `Quick test_lia_alpha_symmetric;
          Alcotest.test_case "alpha 1/n" `Quick test_lia_alpha_n_symmetric;
          Alcotest.test_case "capped by uncoupled" `Quick test_lia_increase_capped_by_uncoupled;
          Alcotest.test_case "slow start" `Quick test_lia_slow_start_uncoupled;
          Alcotest.test_case "loss response" `Quick test_lia_loss_halves;
          Alcotest.test_case "no bias to congested" `Quick test_lia_shifts_away_from_congested;
        ] );
      ( "connection",
        [
          Alcotest.test_case "completes direct" `Quick test_mptcp_completes_direct;
          Alcotest.test_case "completes fattree" `Quick test_mptcp_completes_fattree;
          Alcotest.test_case "1 subflow ~ tcp" `Quick test_mptcp_single_subflow_close_to_tcp;
          Alcotest.test_case "multihomed beats tcp" `Slow test_mptcp_multihomed_beats_tcp;
          Alcotest.test_case "uncoupled" `Quick test_mptcp_uncoupled_runs;
          Alcotest.test_case "invalid subflows" `Quick test_mptcp_invalid_subflows;
          qt test_mptcp_random_loss_property;
        ] );
    ]

(* DCTCP controller tests: alpha dynamics on a synthetic window, and
   end-to-end behaviour over an ECN-marking bottleneck. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Pktqueue = Sim_net.Pktqueue
module Link = Sim_net.Link
module Cong = Sim_tcp.Cong
module Flow = Sim_tcp.Flow
module Rtt_estimator = Sim_tcp.Rtt_estimator
module Tcp_params = Sim_tcp.Tcp_params

let check_bool = Alcotest.(check bool)

(* A synthetic sender for exercising the controller without a TCP
   stack behind it: a window literal and an RTT estimator primed with
   one 1 ms sample. The flight size handed to the loss response is the
   window itself. *)
let mss = 1400

let fake_window ?(cwnd = 14_000.) ?(ssthresh = 1.) () =
  let w = { Cong.cwnd; ssthresh } in
  let rtt = Rtt_estimator.create ~params:Tcp_params.default in
  Rtt_estimator.observe rtt (Time.of_ms 1.);
  (w, Cong.create Cong.Dctcp w ~rtt)

let feed (w, cc) ~acked ~ece n =
  for _ = 1 to n do
    Cong.on_ack cc w ~mss ~acked ~ece
  done

let dctcp_alpha (_, cc) =
  match cc with
  | Cong.Dctcp_cc s -> Some (Cong.Dctcp.alpha s)
  | Cong.Reno_cc | Cong.Lia_cc _ -> None

let test_alpha_starts_zero () =
  let cc = fake_window () in
  Alcotest.(check (option (float 1e-9))) "alpha 0" (Some 0.) (dctcp_alpha cc)

let test_alpha_rises_under_marking () =
  let cc = fake_window () in
  (* Several fully-marked windows: alpha must climb towards 1. *)
  feed cc ~acked:1400 ~ece:true 100;
  match dctcp_alpha cc with
  | Some a -> check_bool "alpha grew" true (a > 0.3)
  | None -> Alcotest.fail "no alpha"

let test_alpha_decays_when_clean () =
  let cc = fake_window () in
  feed cc ~acked:1400 ~ece:true 50;
  let a1 = Option.get (dctcp_alpha cc) in
  (* Clean traffic: alpha must decay geometrically. The window grows
     while clean, so updates get sparser - allow plenty of acks. *)
  feed cc ~acked:1400 ~ece:false 2_000;
  let a2 = Option.get (dctcp_alpha cc) in
  check_bool
    (Printf.sprintf "alpha decayed (%.3f -> %.3f)" a1 a2)
    true
    (a2 < a1 /. 2.)

let test_marked_window_cuts_cwnd () =
  let ((w, _) as cc) = fake_window ~cwnd:28_000. () in
  let before = w.Cong.cwnd in
  feed cc ~acked:1400 ~ece:true 40;
  check_bool "cwnd reduced below growth path" true
    (w.Cong.cwnd < before +. 40. *. 140.)

let test_clean_window_grows () =
  let ((w, _) as cc) = fake_window ~cwnd:14_000. ~ssthresh:1. () in
  let before = w.Cong.cwnd in
  feed cc ~acked:1400 ~ece:false 20;
  check_bool "grows like reno" true (w.Cong.cwnd > before)

let test_loss_still_halves () =
  let w, cc = fake_window ~cwnd:20_000. () in
  Cong.on_loss cc w ~mss ~flight:(int_of_float w.Cong.cwnd) Cong.Fast_retransmit;
  Alcotest.(check (float 1e-9)) "ssthresh" 10_000. w.Cong.ssthresh;
  Alcotest.(check (float 1e-9)) "cwnd" 10_000. w.Cong.cwnd

let ecn_spec threshold =
  { Topology.default_link_spec with ecn_threshold = Some threshold }

let test_dctcp_flow_completes_with_marking () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched ~spec:(ecn_spec Cong.Dctcp.recommended_marking_threshold) () in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:2_000_000
      ~cc:Cong.Dctcp
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete f);
  let marked =
    (Pktqueue.stats (Link.queue net.Topology.links.(0))).Pktqueue.marked
  in
  check_bool "queue marked packets" true (marked > 0)

let test_dctcp_keeps_queue_short () =
  (* The signature DCTCP property: backlog hovers near the marking
     threshold instead of filling the buffer like Reno does. *)
  let run cc =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:3_000_000 ~cc ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    check_bool "complete" true (Flow.is_complete f);
    (Pktqueue.stats (Link.queue net.Topology.links.(0))).Pktqueue.max_backlog
  in
  let dctcp_backlog = run Cong.Dctcp in
  let reno_backlog = run Cong.Reno in
  check_bool
    (Printf.sprintf "dctcp backlog (%d) shorter than reno (%d)" dctcp_backlog
       reno_backlog)
    true
    (dctcp_backlog < reno_backlog)

(* Exact outcome of the ECN dumbbell run under DCTCP and under Reno:
   [(fct_ns, marked, dropped, max_backlog)]. No experiment exercises
   DCTCP, so these pins are what catches a change to its window
   arithmetic. *)
let test_ecn_dumbbell_pinned () =
  let run cc =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:3_000_000 ~cc ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    let st = Pktqueue.stats (Link.queue net.Topology.links.(0)) in
    ( (match Flow.fct f with Some t -> Time.to_ns t | None -> -1),
      st.Pktqueue.marked,
      st.Pktqueue.dropped,
      st.Pktqueue.max_backlog )
  in
  let outcome = Alcotest.(pair int (pair int (pair int int))) in
  let flat (a, b, c, d) = (a, (b, (c, d))) in
  Alcotest.check outcome "dctcp" (246_935_492, (874, (0, 70)))
    (flat (run Cong.Dctcp));
  Alcotest.check outcome "reno" (249_450_924, (1872, (104, 100))) (flat (run Cong.Reno))

let test_dctcp_avoids_loss_at_bottleneck () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:2_000_000
      ~cc:Cong.Dctcp
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete f);
  Alcotest.(check int) "no drops"
    0
    (Pktqueue.stats (Link.queue net.Topology.links.(0))).Pktqueue.dropped

let test_back_to_back_runs_identical () =
  (* Regression for the old global alpha registry: a second identical
     run must see exactly the first one's dynamics, with no state
     carried over from the previous simulation. *)
  let run_once () =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:1_000_000
        ~cc:Cong.Dctcp
        ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    let st = Pktqueue.stats (Link.queue net.Topology.links.(0)) in
    ( Flow.is_complete f,
      st.Pktqueue.marked,
      st.Pktqueue.dropped,
      st.Pktqueue.max_backlog )
  in
  let r1 = run_once () in
  let r2 = run_once () in
  check_bool "identical marking/backlog trajectory" true (r1 = r2)

let () =
  Alcotest.run "sim_dctcp"
    [
      ( "alpha",
        [
          Alcotest.test_case "starts at zero" `Quick test_alpha_starts_zero;
          Alcotest.test_case "rises under marking" `Quick test_alpha_rises_under_marking;
          Alcotest.test_case "decays when clean" `Quick test_alpha_decays_when_clean;
        ] );
      ( "window",
        [
          Alcotest.test_case "marked window cuts" `Quick test_marked_window_cuts_cwnd;
          Alcotest.test_case "clean window grows" `Quick test_clean_window_grows;
          Alcotest.test_case "loss halves" `Quick test_loss_still_halves;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "completes with marking" `Quick test_dctcp_flow_completes_with_marking;
          Alcotest.test_case "keeps queue short" `Quick test_dctcp_keeps_queue_short;
          Alcotest.test_case "avoids loss" `Quick test_dctcp_avoids_loss_at_bottleneck;
          Alcotest.test_case "ecn dumbbell pinned" `Quick test_ecn_dumbbell_pinned;
          Alcotest.test_case "back-to-back runs identical" `Quick
            test_back_to_back_runs_identical;
        ] );
    ]

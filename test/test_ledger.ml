(* Tests for the flow ledger: hook mechanics (first-wins, hybrid
   aliasing, unknown-conn drops), that hooks on unseen conns allocate
   nothing,
   packet-vs-hybrid cross-model agreement, that publishing the dump
   never changes a scenario's results, and rendering determinism of
   the ledger sink. *)

module Time = Sim_engine.Sim_time
module L = Sim_obs.Flow_ledger
module Scenario = Sim_workload.Scenario

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Hook mechanics on a hand-driven ledger *)

let test_mechanics () =
  let l = L.create () in
  let now = ref 100 in
  L.set_clock l ~clock_ns:(fun () -> !now);
  L.on_start l ~conn:7 ~src:1 ~dst:2 ~size:70_000 ~long:false;
  now := 200;
  L.on_start l ~conn:9 ~src:3 ~dst:4 ~size:1_000 ~long:true;
  L.on_start l ~conn:7 ~src:9 ~dst:9 ~size:1 ~long:true (* dup: ignored *);
  check_int "two flows" 2 (L.count l);
  now := 300;
  L.on_handshake l ~conn:7;
  now := 400;
  L.on_handshake l ~conn:7 (* second subflow: first wins *);
  L.on_rto l ~conn:7;
  L.on_rto l ~conn:7;
  L.on_fast_rtx l ~conn:7;
  L.on_rto l ~conn:555 (* never started: dropped *);
  now := 900;
  L.on_complete l ~conn:7;
  now := 950;
  L.on_complete l ~conn:7 (* first wins *);
  L.add_bytes l ~conn:7 70_000;
  let d = L.dump l in
  check_int "dump size" 2 (Array.length d);
  let e = d.(0) in
  check_int "conn" 7 e.L.e_conn;
  check_int "src" 1 e.L.e_src;
  check_int "dst" 2 e.L.e_dst;
  check_int "size" 70_000 e.L.e_size;
  Alcotest.(check bool) "class" false e.L.e_long;
  check_int "start" 100 e.L.e_start_ns;
  check_int "handshake first wins" 300 e.L.e_handshake_ns;
  check_int "complete first wins" 900 e.L.e_complete_ns;
  check_int "fct" 800 (Option.get (L.fct_ns e));
  check_int "rtos" 2 e.L.e_rtos;
  check_int "fast rtxs" 1 e.L.e_fast_rtxs;
  check_int "bytes" 70_000 e.L.e_bytes;
  check_int "arrival order" 9 d.(1).L.e_conn;
  Alcotest.(check (option int)) "unfinished fct" None (L.fct_ns d.(1))

let test_promote_alias () =
  let l = L.create () in
  let now = ref 10 in
  L.set_clock l ~clock_ns:(fun () -> !now);
  L.on_start l ~conn:1 ~src:0 ~dst:1 ~size:500_000 ~long:false;
  now := 20;
  L.on_handshake l ~conn:1;
  now := 30;
  (* The packet stage drains its handoff slice: transport-level
     completion fires before the promotion does. *)
  L.on_complete l ~conn:1;
  L.add_bytes l ~conn:1 20_000;
  now := 40;
  L.on_promote l ~conn:1 ~cont:77;
  let e = (L.dump l).(0) in
  check_int "promotion recorded" 40 e.L.e_promote_ns;
  check_int "premature completion cleared" (-1) e.L.e_complete_ns;
  (* Stage-2 events on the fluid continuation land on the same row. *)
  now := 90;
  L.on_phase_switch l ~conn:77;
  now := 100;
  L.on_complete l ~conn:77;
  L.add_bytes l ~conn:77 480_000;
  let e = (L.dump l).(0) in
  check_int "one flow, not two" 1 (L.count l);
  check_int "switch via alias" 90 e.L.e_switch_ns;
  check_int "complete via alias" 100 e.L.e_complete_ns;
  check_int "fct spans both stages" 90 (Option.get (L.fct_ns e));
  check_int "both stages' bytes sum" 500_000 e.L.e_bytes

(* Transports driven outside a scenario, and background transfers
   inside one, report on conns that [on_start] never saw: those hooks
   must allocate nothing, however many fire. Conns up to 1023 fall
   inside the conn->slot map, the rest outside it. Slack of a few
   words absorbs the Gc.minor_words boxes the measurement itself
   allocates. *)
let test_unseen_inert () =
  let l = L.create () in
  L.set_clock l ~clock_ns:(fun () -> 5);
  L.on_start l ~conn:0 ~src:0 ~dst:1 ~size:70_000 ~long:false;
  let w0 = Gc.minor_words () in
  for i = 1 to 99_999 do
    L.on_handshake l ~conn:i;
    L.on_rto l ~conn:i;
    L.on_fast_rtx l ~conn:i;
    L.on_phase_switch l ~conn:i;
    L.on_promote l ~conn:i ~cont:(i + 1);
    L.on_complete l ~conn:i;
    L.add_bytes l ~conn:i 1
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 64. then
    Alcotest.failf "hooks on unseen conns allocated %.0f minor words" dw;
  check_int "recorded only the started flow" 1 (L.count l);
  let e = (L.dump l).(0) in
  check_int "no handshake" (-1) e.L.e_handshake_ns;
  check_int "no bytes" 0 e.L.e_bytes

(* ------------------------------------------------------------------ *)
(* Scenario-level *)

let tiny_dumbbell ?(seed = 3) ?(rate = 3.) ?(size = 70_000) model =
  {
    Scenario.default_config with
    Scenario.model;
    topo =
      Scenario.Dumbbell_topo { pairs = 4; bottleneck = Scenario.paper_link_spec };
    protocol = Scenario.Tcp_proto;
    seed;
    long_fraction = 0.;
    short_size = size;
    short_flows = 40;
    short_rate = rate;
    horizon = Time.of_sec (12. /. rate);
    obs = { Scenario.default_obs with ledger = true };
  }

let ledger_fcts_ms d =
  Array.to_list d
  |> List.filter_map (fun e ->
         if e.L.e_long then None
         else Option.map (fun ns -> float_of_int ns /. 1e6) (L.fct_ns e))
  |> List.sort compare

(* Packet and hybrid see the same arrival process, so their ledgers
   must list the same flows; FCTs agree within the ext-fluid-xval
   envelope. Like xval this needs the light-load regime (the fluid
   stage cannot represent RTO recovery), and flows long enough that
   the fluid engine's 2 ms rebalance quantum — a constant settling
   cost every promoted flow pays once — stays inside the relative
   envelope. A low handoff forces every short through promotion, so
   the aliasing path is exercised for real. *)
let test_packet_vs_hybrid () =
  let dump model =
    Option.get
      (Scenario.run (tiny_dumbbell ~rate:0.4 ~size:250_000 model)).Scenario.ledger
  in
  let p = dump Scenario.Packet
  and h = dump (Scenario.Hybrid { handoff_bytes = 20_000 }) in
  check_int "same flow set" (Array.length p) (Array.length h);
  Array.iteri
    (fun i (e : L.entry) ->
      let f = h.(i) in
      check_int "src" e.L.e_src f.L.e_src;
      check_int "dst" e.L.e_dst f.L.e_dst;
      check_int "size" e.L.e_size f.L.e_size;
      check_int "start" e.L.e_start_ns f.L.e_start_ns;
      if f.L.e_promote_ns >= 0 && f.L.e_promote_ns < f.L.e_start_ns then
        Alcotest.failf "flow %d promoted before it started" i)
    p;
  let promoted =
    Array.to_list h |> List.filter (fun e -> e.L.e_promote_ns >= 0)
  in
  check_int "every short promoted" (Array.length h) (List.length promoted);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let mp = mean (ledger_fcts_ms p) and mh = mean (ledger_fcts_ms h) in
  let dev = Float.abs (mh -. mp) /. mp in
  if dev > 0.10 then
    Alcotest.failf "hybrid mean FCT off by %.1f%% (packet %.3fms, hybrid %.3fms)"
      (100. *. dev) mp mh

(* Same config, two runs: dumps equal, sink renderings byte-equal.
   This is the in-process face of the CI jobs-1-vs-4 artifact diff. *)
let test_render_deterministic () =
  let arts () =
    let r = Scenario.run (tiny_dumbbell Scenario.Packet) in
    Sim_experiments.Ledger_sink.artifacts ~experiment:"t"
      [ ("p", Option.get r.Scenario.ledger) ]
  in
  let a = arts () and b = arts () in
  check_int "artifact count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      match (x, y) with
      | Sim_experiments.Sink.Raw r1, Sim_experiments.Sink.Raw r2 ->
        Alcotest.(check string) "jsonl basename" r1.basename r2.basename;
        Alcotest.(check string) "jsonl bytes" r1.contents r2.contents
      | Sim_experiments.Sink.Table t1, Sim_experiments.Sink.Table t2 ->
        let module Sink = Sim_experiments.Sink in
        Alcotest.(check bool) "tables equal" true
          (Sink.name t1 = Sink.name t2
          && Sink.columns t1 = Sink.columns t2
          && Sink.rows t1 = Sink.rows t2)
      | _ -> Alcotest.fail "artifact shape changed between runs")
    a b

(* ------------------------------------------------------------------ *)
(* qcheck: publishing the dump changes nothing *)

(* Every run records the ledger and derives its results from it;
   [obs.ledger] only decides whether the dump is returned too. So a
   run with it off and one with it on agree on everything else, under
   every flow model. *)
let publishing_is_read_only =
  QCheck.Test.make ~count:3 ~name:"obs.ledger changes no result (any seed)"
    QCheck.(int_range 1 1000)
    (fun seed ->
      List.for_all
        (fun model ->
          let on = tiny_dumbbell ~seed model in
          let off = { on with Scenario.obs = Scenario.default_obs } in
          let a = Scenario.run off and b = Scenario.run on in
          a.Scenario.ledger = None
          && b.Scenario.ledger <> None
          && a.Scenario.shorts = b.Scenario.shorts
          && a.Scenario.longs = b.Scenario.longs
          && a.Scenario.events = b.Scenario.events
          && a.Scenario.net = b.Scenario.net)
        [ Scenario.Packet; Scenario.Fluid;
          Scenario.Hybrid { handoff_bytes = 20_000 } ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ledger"
    [
      ( "hooks",
        [
          Alcotest.test_case "lifecycle mechanics" `Quick test_mechanics;
          Alcotest.test_case "hybrid promotion alias" `Quick test_promote_alias;
          Alcotest.test_case "unseen-conn hooks allocate nothing" `Quick
            test_unseen_inert;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "packet vs hybrid agreement" `Quick
            test_packet_vs_hybrid;
          Alcotest.test_case "rendering deterministic" `Quick
            test_render_deterministic;
        ] );
      ("qcheck", [ qt publishing_is_read_only ]);
    ]

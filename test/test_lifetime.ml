(* Connection lifetimes: a packet-level connection closes — unbinds
   from both hosts and fires its [on_close] — exactly when it can never
   act again (no live packet, no pending timer), and not before. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Fattree = Sim_net.Fattree
module Flow = Sim_tcp.Flow
module Mmptcp_conn = Mmptcp.Mmptcp_conn
module Strategy = Mmptcp.Strategy
module Flow_model = Sim_workload.Flow_model
module Model_packet = Sim_workload.Model_packet
module Scenario = Sim_workload.Scenario
module Flow_ledger = Sim_obs.Flow_ledger

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [Host.bind] refuses a bound id, so a successful bind (undone at
   once) shows the connection was unbound. *)
let bound host ~conn =
  match Host.bind host ~conn ignore with
  | () ->
    Host.unbind host ~conn;
    false
  | exception Invalid_argument _ -> true

let live_packets sched ~conn = Packet.live_packets ~ctx:(Scheduler.ctx sched) ~conn

(* One transfer of each transport, started with a close counter. *)
type transfer = {
  name : string;
  start :
    src:Host.t -> dst:Host.t -> size:int -> on_close:(unit -> unit) -> int;
      (** returns the conn id *)
}

let transports =
  [
    {
      name = "tcp";
      start =
        (fun ~src ~dst ~size ~on_close ->
          Flow.conn (Flow.start ~src ~dst ~size ~on_close:(fun _ -> on_close ()) ()));
    };
    {
      name = "mptcp-8";
      start =
        (fun ~src ~dst ~size ~on_close ->
          Flow.conn
            (Flow.start_mptcp ~src ~dst ~size ~subflows:8
               ~on_close:(fun _ -> on_close ())
               ()));
    };
    {
      name = "mmptcp";
      start =
        (fun ~src ~dst ~size ~on_close ->
          let c =
            Mmptcp_conn.start ~src ~dst ~size ~rng:(Rng.create ~seed:3) ~paths:4
              ~strategy:
                { Strategy.default with Strategy.switch = Strategy.Data_volume 50_000 }
              ~on_close:(fun _ -> on_close ())
              ()
          in
          Flow.conn (Mmptcp_conn.flow c));
    };
  ]

let k4 sched = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ())

(* Drained: the transfer completes, the scheduler runs dry, and the
   connection has closed exactly once on both hosts. The MMPTCP
   transfer crosses its 50 KB switch, so its multipath subflows must
   drain too. The simulation is then quiescent: no packet is live in
   its pool (0 in release, where the pool does not count) and every
   event cell is back on its freelist. *)
let test_drained_closes_once () =
  List.iter
    (fun tr ->
      let sched = Scheduler.create () in
      let net = k4 sched in
      let src = Topology.host net 0 and dst = Topology.host net 13 in
      let closes = ref 0 in
      let conn = tr.start ~src ~dst ~size:200_000 ~on_close:(fun () -> incr closes) in
      Scheduler.run sched;
      check_int (tr.name ^ ": on_close once") 1 !closes;
      check_bool (tr.name ^ ": src unbound") false (bound src ~conn);
      check_bool (tr.name ^ ": dst unbound") false (bound dst ~conn);
      check_int (tr.name ^ ": no live packet") 0 (live_packets sched ~conn);
      check_int (tr.name ^ ": nothing unmatched") 0
        (Host.unmatched src + Host.unmatched dst);
      check_int (tr.name ^ ": pool empty") 0
        (Packet.live_total ~ctx:(Scheduler.ctx sched));
      check_int (tr.name ^ ": event cells all free")
        (Scheduler.event_cells_allocated sched)
        (Scheduler.event_cells_free sched))
    transports

(* A zero-byte transfer under every protocol completes at once (fct
   0), reports completion and close once each, and delivers nothing. *)
let test_zero_byte_transfer () =
  let protocols =
    [
      ("tcp", fun ~src ~dst ~on_complete ~on_close ->
          Flow.start ~src ~dst ~size:0 ~on_complete ~on_close ());
      ("mptcp-4", fun ~src ~dst ~on_complete ~on_close ->
          Flow.start_mptcp ~src ~dst ~size:0 ~subflows:4 ~on_complete ~on_close
            ());
      ("mmptcp", fun ~src ~dst ~on_complete ~on_close ->
          Mmptcp_conn.flow
            (Mmptcp_conn.start ~src ~dst ~size:0 ~rng:(Rng.create ~seed:16)
               ~on_complete:(fun c -> on_complete (Mmptcp_conn.flow c))
               ~on_close:(fun c -> on_close (Mmptcp_conn.flow c))
               ()));
    ]
  in
  List.iter
    (fun (name, start) ->
      let sched = Scheduler.create () in
      let net = Dumbbell.direct ~sched () in
      let src = Topology.host net 0 and dst = Topology.host net 1 in
      let completions = ref 0 and closes = ref 0 in
      let f =
        start ~src ~dst
          ~on_complete:(fun _ -> incr completions)
          ~on_close:(fun _ -> incr closes)
      in
      Scheduler.run ~until:(Time.of_sec 1.) sched;
      check_bool (name ^ ": complete") true (Flow.is_complete f);
      check_bool (name ^ ": fct 0") true (Flow.fct f = Some Time.zero);
      check_int (name ^ ": on_complete once") 1 !completions;
      check_int (name ^ ": on_close once") 1 !closes;
      check_int (name ^ ": no bytes") 0 (Flow.bytes_received f))
    protocols

(* Three flows open at once behind a one-packet NIC queue: the third
   SYN is dropped inside [Host.send], before [Tcp_tx.connect] arms the
   RTO. A close check run at that free would find no packet and no
   timer and close a live connection; deferred to host delivery, it
   sees the armed RTO. Every outcome matches the values recorded
   before connections could close. *)
let test_first_hop_drop_not_closed () =
  let sched = Scheduler.create () in
  let spec = { Topology.default_link_spec with Topology.queue_capacity = 1 } in
  let net = Dumbbell.direct ~sched ~spec () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  let closed = Array.make 3 None in
  let flows =
    Array.init 3 (fun i ->
        Flow.start ~src ~dst ~size:70_000
          ~on_close:(fun _ -> closed.(i) <- Some (Scheduler.now sched))
          ())
  in
  Scheduler.run ~until:(Time.of_sec 30.) sched;
  let syns = (Sim_tcp.Tcp_tx.stats (Flow.tx flows.(2))).Sim_tcp.Tcp_tx.syn_sent in
  check_int "third SYN retransmitted" 2 syns;
  Array.iteri
    (fun i (fct_ns, rtos, frtx) ->
      let f = flows.(i) in
      let what = Printf.sprintf "flow %d" i in
      check_int (what ^ " fct") fct_ns
        (match Flow.fct f with Some t -> Time.to_ns t | None -> -1);
      check_int (what ^ " rtos") rtos (Flow.rto_events f);
      check_int (what ^ " fast rtx") frtx
        (Sim_tcp.Tcp_tx.stats (Flow.tx f)).Sim_tcp.Tcp_tx.fast_rtx_events;
      match (closed.(i), Flow.completed_at f) with
      | Some at, Some done_at ->
        check_bool (what ^ " closed after completing") true (Time.compare at done_at >= 0)
      | _ -> Alcotest.failf "%s: not completed and closed" what)
    [| (206_490_022, 1, 6); (606_408_970, 2, 6); (406_527_769, 1, 6) |];
  check_int "nothing unmatched" 0 (Host.unmatched src + Host.unmatched dst)

(* The close rule itself, with only a timer to keep the connection:
   one data segment reaches a handler that sends its reply from a
   timer 40 ms out. No packet is alive meanwhile, but the pending timer
   keeps the connection bound; once the reply has been delivered, it
   closes. *)
let test_pending_timer_keeps_bound () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let src = Topology.host net 0 and dst = Topology.host net 1 in
  let conn = 9 and acks = ref 0 and closed = ref None in
  let segment ~from ~to_ ~len ~bits =
    Packet.make ~ctx:(Scheduler.ctx sched) ~src:(Host.addr from)
      ~dst:(Host.addr to_) ~conn ~subflow:0 ~src_port:1 ~dst_port:2 ~seq:0
      ~ack_seq:0 ~len ~bits
  in
  let reply =
    Scheduler.Timer.create sched
      (fun () ->
        Host.send dst (segment ~from:dst ~to_:src ~len:0 ~bits:Packet.pure_ack_bits))
      ()
  in
  Host.bind_conn ~src ~dst ~conn
    ~tx:(fun _ -> incr acks)
    ~rx:(fun _ -> Scheduler.Timer.schedule_after reply (Time.of_ms 40.))
    ~timers_pending:(fun () -> Scheduler.Timer.is_pending reply)
    ~on_close:(fun () -> closed := Some (Scheduler.now sched));
  Host.send src (segment ~from:src ~to_:dst ~len:100 ~bits:Packet.data_bits);
  Scheduler.run ~until:(Time.of_ms 20.) sched;
  check_int "segment delivered, reply held" 0 (live_packets sched ~conn);
  check_bool "timer pending" true (Scheduler.Timer.is_pending reply);
  check_bool "still bound" true (bound src ~conn && bound dst ~conn);
  check_bool "not closed" true (!closed = None);
  Scheduler.run sched;
  check_int "reply delivered" 1 !acks;
  (match !closed with
  | Some at -> check_bool "closed after the timer" true (Time.to_ms at >= 40.)
  | None -> Alcotest.fail "not closed");
  check_bool "unbound" false (bound src ~conn || bound dst ~conn)

(* The same instant in real transports: two filler flows fill a
   one-packet NIC queue, so the transport under test loses its SYN at
   the first hop. No packet of it is alive while its SYN's RTO is
   pending; the connection stays bound, retransmits, completes and
   closes once. *)
let test_pending_timers_keep_transports_bound () =
  (* [start] returns the flow under test. *)
  let quiet_instant ~what start =
    let sched = Scheduler.create () in
    let spec = { Topology.default_link_spec with Topology.queue_capacity = 1 } in
    let net = Dumbbell.direct ~sched ~spec () in
    let src = Topology.host net 0 and dst = Topology.host net 1 in
    for _ = 1 to 2 do
      ignore (Flow.start ~src ~dst ~size:3_000 ())
    done;
    let closes = ref 0 in
    let f = start ~src ~dst ~on_close:(fun _ -> incr closes) in
    let conn = Flow.conn f in
    (* The fillers' transfers take well under 10 ms at 100 Mb/s; the
       SYN's RTO fires at 200 ms. *)
    Scheduler.run ~until:(Time.of_ms 10.) sched;
    check_int (what ^ ": nothing alive") 0 (live_packets sched ~conn);
    check_bool (what ^ ": timer pending") true
      (Sim_tcp.Tcp_tx.rto_pending (Flow.tx f));
    check_bool (what ^ ": still bound") true (bound src ~conn && bound dst ~conn);
    check_int (what ^ ": not closed") 0 !closes;
    Scheduler.run sched;
    check_bool (what ^ ": complete") true (Flow.is_complete f);
    check_int (what ^ ": closed once") 1 !closes
  in
  quiet_instant ~what:"tcp SYN loss" (fun ~src ~dst ~on_close ->
      Flow.start ~src ~dst ~size:3_000 ~on_close ());
  quiet_instant ~what:"mmptcp SYN loss" (fun ~src ~dst ~on_close ->
      Mmptcp_conn.flow
        (Mmptcp_conn.start ~src ~dst ~size:3_000 ~rng:(Rng.create ~seed:4)
           ~on_close ()))

(* A flow's outcome reaches the ledger from the connection itself:
   its bytes when it closes, or from [finish] if it is still open at
   the horizon. Two runs of one MPTCP-8 transfer: one cut by the
   horizon reports its progress, one run until drained reports the
   final outcome and is unbound. *)
let packet_outcome ~until =
  let cfg =
    {
      Flow_model.default_config with
      Flow_model.topo =
        Flow_model.Fattree_topo (Flow_model.paper_fattree ~k:4 ~oversub:2 ());
      protocol = Flow_model.Mptcp_proto { subflows = 8; coupled = true };
    }
  in
  let sched = Scheduler.create () in
  let ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched) in
  Flow_ledger.set_clock ledger ~clock_ns:(fun () ->
      Time.to_ns (Scheduler.now sched));
  let net = Model_packet.build ~sched cfg in
  let closes = ref 0 in
  let conn =
    Model_packet.start_flow cfg net ~rng:(Rng.create ~seed:1) ~src_id:0
      ~dst_id:13 ~size:2_000_000 ~on_close:(fun () -> incr closes)
  in
  Flow_ledger.on_start ledger ~conn ~src:0 ~dst:13 ~size:2_000_000 ~long:true;
  Scheduler.run ?until sched;
  let src = Topology.host (Model_packet.topology net) 0 in
  let bound_at_horizon = bound src ~conn in
  ignore (Model_packet.finish net);
  ((Flow_ledger.dump ledger).(0), bound_at_horizon, !closes)

let test_live_until_close () =
  let e, bound, closes = packet_outcome ~until:(Some (Time.of_ms 40.)) in
  check_bool "cut: in flight at the horizon" true (Flow_ledger.fct_ns e = None);
  check_bool "cut: bound at the horizon" true bound;
  check_int "cut: not closed" 0 closes;
  check_bool "cut: bytes are partial" true
    (0 < e.Flow_ledger.e_bytes && e.Flow_ledger.e_bytes < 2_000_000);
  let e, bound, closes = packet_outcome ~until:None in
  check_bool "drained: closed" false bound;
  check_int "drained: on_close once" 1 closes;
  check_int "drained: final bytes" 2_000_000 e.Flow_ledger.e_bytes;
  check_bool "drained: final fct" true (Flow_ledger.fct_ns e <> None)

(* A hybrid flow promoted to fluid and cut by the horizon adds both
   stages' bytes: the packet stage its whole handoff slice when it
   closes, the fluid continuation its progress from [finish]. *)
let test_hybrid_stages_sum () =
  let handoff = 100_000 and size = 1_000_000_000 in
  let cfg =
    {
      Scenario.default_config with
      Scenario.model = Scenario.Hybrid { handoff_bytes = handoff };
      topo = Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:2 ());
      long_size = size;
      short_flows = 0;
      horizon = Time.of_ms 200.;
      obs = { Scenario.default_obs with Scenario.ledger = true };
    }
  in
  let r = Scenario.run cfg in
  let d = Option.get r.Scenario.ledger in
  check_int "one record per long" (Array.length r.Scenario.longs) (Array.length d);
  let promoted = ref 0 in
  Array.iteri
    (fun i (e : Flow_ledger.entry) ->
      let f = r.Scenario.longs.(i) in
      check_bool "cut by the horizon" true (e.e_complete_ns < 0 && f.Scenario.fct = None);
      check_int "result reads the ledger" e.e_bytes f.Scenario.bytes_received;
      if e.e_promote_ns >= 0 then begin
        incr promoted;
        check_bool "packet stage plus some fluid progress" true
          (handoff < e.e_bytes && e.e_bytes < size)
      end
      else check_bool "packet stage only" true (e.e_bytes <= handoff))
    d;
  check_bool "some longs promoted" true (!promoted > 0)

(* Leak regression: sequential MPTCP-8 transfers on a k=4 FatTree,
   each drained before the next starts, keep no per-transfer state in
   the simulation. A connection held until the horizon costs about
   11.5 KB; the bound is 1 KB. The first transfers are warm-up: they
   grow the packet and event pools toward their high-water marks. *)
let test_sequential_transfers_no_leak () =
  let sched = Scheduler.create () in
  let net = k4 sched in
  let closes = ref 0 in
  let transfer i =
    let src = Topology.host net (i mod 16) in
    let dst = Topology.host net (16 + (i * 5 mod 16)) in
    ignore
      (Flow.start_mptcp ~src ~dst ~size:70_000 ~subflows:8
         ~on_close:(fun _ -> incr closes)
         ());
    Scheduler.run sched
  in
  let words () = Obj.reachable_words (Obj.repr (net, sched)) in
  let warm = 20 and n = 40 in
  for i = 0 to warm - 1 do
    transfer i
  done;
  let w0 = words () in
  for i = warm to warm + n - 1 do
    transfer i
  done;
  let per_transfer = (words () - w0) * (Sys.word_size / 8) / n in
  check_int "every transfer closed" (warm + n) !closes;
  if per_transfer >= 1024 then
    Alcotest.failf "simulation grew %d bytes per drained transfer" per_transfer

let () =
  Alcotest.run "lifetime"
    [
      ( "close",
        [
          Alcotest.test_case "drained closes once" `Quick test_drained_closes_once;
          Alcotest.test_case "zero-byte transfer" `Quick test_zero_byte_transfer;
          Alcotest.test_case "first-hop drop not closed" `Quick
            test_first_hop_drop_not_closed;
          Alcotest.test_case "pending timer keeps bound" `Quick
            test_pending_timer_keeps_bound;
          Alcotest.test_case "pending timers keep transports bound" `Quick
            test_pending_timers_keep_transports_bound;
          Alcotest.test_case "live until close" `Quick test_live_until_close;
          Alcotest.test_case "hybrid stages sum" `Quick test_hybrid_stages_sum;
          Alcotest.test_case "no leak across transfers" `Quick
            test_sequential_transfers_no_leak;
        ] );
    ]

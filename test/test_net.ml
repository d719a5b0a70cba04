(* Unit and property tests for packets, queues, links, ECMP. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Addr = Sim_net.Addr
module Packet = Sim_net.Packet
module Ecmp = Sim_net.Ecmp
module Pktqueue = Sim_net.Pktqueue
module Link = Sim_net.Link
module Layer = Sim_net.Layer
module Host = Sim_net.Host

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Hand-built packets/queues in these tests sit outside any one
   simulation; a file-level context supplies their ids. *)
let ctx = Sim_engine.Sim_ctx.create ()

let mk_pkt ?(src = 0) ?(dst = 1) ?(conn = 1) ?(subflow = 0) ?(src_port = 1000)
    ?(dst_port = 2000) ?(seq = 0) ?(ack_seq = 0) ?(len = 1000)
    ?(bits = Packet.data_bits) () =
  Packet.make ~ctx ~src:(Addr.of_int src) ~dst:(Addr.of_int dst) ~conn ~subflow
    ~src_port ~dst_port ~seq ~ack_seq ~len ~bits ~dsn:(-1)

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_size () =
  let p = mk_pkt ~len:1400 () in
  check_int "wire size includes header" (1400 + Packet.header_bytes) p.Packet.size

let test_packet_uids_unique () =
  let a = mk_pkt () and b = mk_pkt () in
  check_bool "distinct uids" true (a.Packet.uid <> b.Packet.uid)

let test_packet_classify () =
  let data = mk_pkt ~len:100 () in
  check_bool "data" true (Packet.is_data data);
  check_bool "data not ack" false (Packet.is_pure_ack data);
  let ack = mk_pkt ~len:0 ~bits:Packet.pure_ack_bits () in
  check_bool "pure ack" true (Packet.is_pure_ack ack)

(* --- pool ownership & sanitizer ---------------------------------- *)

let test_pool_copy_independent () =
  let p = mk_pkt ~seq:500 ~len:700 () in
  p.Packet.sack.(0) <- 100;
  p.Packet.sack.(1) <- 200;
  p.Packet.sack_count <- 1;
  let c = Packet.copy ~ctx p in
  Packet.free ~ctx p;
  (* The copy owns its record: freeing (and, in debug, poisoning) the
     original must not be observable through it. *)
  check_int "seq survives original's free" 500 c.Packet.seq;
  check_int "len survives original's free" 700 c.Packet.len;
  Alcotest.(check (list (pair int int)))
    "sack blocks survive original's free" [ (100, 200) ]
    (Packet.sack_blocks c)

let test_pool_fresh_uid_on_reuse () =
  let a = mk_pkt () in
  let uid_a = a.Packet.uid in
  Packet.free ~ctx a;
  let b = mk_pkt () in
  (* LIFO freelist: the record just freed is the one reissued... *)
  check_bool "record is physically reused" true (b == a);
  (* ...but with a fresh uid, so uid sequences are identical with or
     without reuse. *)
  check_bool "fresh uid on reuse" true (b.Packet.uid <> uid_a)

let test_pool_sack_isolation () =
  let a = mk_pkt () in
  a.Packet.sack.(0) <- 100;
  a.Packet.sack.(1) <- 200;
  a.Packet.sack_count <- 1;
  let c = Packet.copy ~ctx a in
  Packet.free ~ctx a;
  let b = mk_pkt () in
  (* [b] reuses [a]'s record: its SACK state must be reset, not the
     stale (in debug: poisoned) scratch contents. *)
  check_int "reused packet has no sack blocks" 0 b.Packet.sack_count;
  Alcotest.(check (list (pair int int)))
    "sack_blocks empty after reuse" [] (Packet.sack_blocks b);
  (* And the copy's scratch array is its own, not shared with the
     recycled record. *)
  b.Packet.sack.(0) <- 7;
  Alcotest.(check (list (pair int int)))
    "copy's sack unaffected by reuse" [ (100, 200) ]
    (Packet.sack_blocks c)

let test_pool_sanitizer_catches_uaf () =
  (* Plant a deliberate use-after-free and a double free; in debug
     profiles the sanitizer must turn both into Invalid_argument. In
     release (sanitizer compiled out) the test is vacuous — skip
     rather than corrupt the pool. *)
  if Packet.sanitizer then begin
    let p = mk_pkt () in
    Packet.free ~ctx p;
    check_bool "accessor raises on freed packet" true
      (match Packet.is_data p with
      | _ -> false
      | exception Invalid_argument _ -> true);
    check_bool "double free raises" true
      (match Packet.free ~ctx p with
      | () -> false
      | exception Invalid_argument _ -> true)
  end

let test_pool_live_total () =
  let ctx = Sim_engine.Sim_ctx.create () in
  let mk conn =
    Packet.make ~ctx ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~conn
      ~subflow:0 ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0 ~len:0
      ~bits:Packet.data_bits ~dsn:(-1)
  in
  check_int "starts balanced" 0 (Packet.live_total ~ctx);
  let a = mk 1 in
  let b = mk 2 in
  check_int "two live" 2 (Packet.live_total ~ctx);
  Packet.free ~ctx a;
  Packet.free ~ctx b;
  check_int "clean teardown balances to zero" 0 (Packet.live_total ~ctx)

let test_addr () =
  check_int "round trip" 5 (Addr.to_int (Addr.of_int 5));
  check_bool "equal" true (Addr.equal (Addr.of_int 3) (Addr.of_int 3));
  Alcotest.check_raises "negative" (Invalid_argument "Addr.of_int: negative")
    (fun () -> ignore (Addr.of_int (-1)))

(* ------------------------------------------------------------------ *)
(* ECMP *)

let test_ecmp_deterministic () =
  let p = mk_pkt () in
  check_int "same packet, same choice"
    (Ecmp.select p ~salt:3 ~n:8)
    (Ecmp.select p ~salt:3 ~n:8)

let test_ecmp_flow_consistent () =
  (* Two packets of the same 5-tuple hash identically regardless of
     payload. *)
  let a = mk_pkt ~len:100 () and b = mk_pkt ~len:1400 () in
  check_int "flow-consistent" (Ecmp.select a ~salt:9 ~n:4) (Ecmp.select b ~salt:9 ~n:4)

let prop_ecmp_in_range =
  QCheck.Test.make ~name:"ecmp select in range" ~count:500
    QCheck.(quad small_int small_int small_int (int_range 1 64))
    (fun (sport, dport, salt, n) ->
      let p =
        mk_pkt ~src:1 ~dst:2 ~src_port:sport ~dst_port:dport ~len:10 ()
      in
      let v = Ecmp.select p ~salt ~n in
      v >= 0 && v < n)

let prop_ecmp_pure_function =
  (* Path selection is a pure function of (5-tuple, salt): distinct
     packet objects with distinct uids and payload sizes, and repeated
     evaluations, all agree. This is the property the domain-parallel
     runner leans on — spraying must not depend on allocation order or
     anything else ambient. *)
  QCheck.Test.make ~name:"ecmp pure function of (5-tuple, salt)" ~count:500
    QCheck.(
      pair
        (quad small_int small_int small_int small_int)
        (pair small_int (int_range 1 64)))
    (fun ((src, dst, sport, dport), (salt, n)) ->
      let mk len =
        mk_pkt ~src ~dst ~src_port:sport ~dst_port:dport ~len ()
      in
      let a = mk 10 and b = mk 1000 in
      let first = Ecmp.select a ~salt ~n in
      first = Ecmp.select b ~salt ~n
      && first = Ecmp.select a ~salt ~n
      && Ecmp.flow_hash a = Ecmp.flow_hash b)

let test_ecmp_hash_golden () =
  (* Pinned outputs of the stable hash (simlint rule D003 rationale):
     these exact values must survive compiler and stdlib upgrades. If
     one changes, every sprayed packet re-routes and every figure
     silently shifts — fail loudly here instead. *)
  List.iter
    (fun ((src, dst, sport, dport, salt), expected) ->
      check_int
        (Printf.sprintf "hash(%d,%d,%d,%d salt=%d)" src dst sport dport salt)
        expected
        (Ecmp.hash_fields ~src ~dst ~sport ~dport ~salt))
    [
      ((0, 0, 0, 0, 0), 0);
      ((1, 2, 1000, 2000, 0), 3557164111517134063);
      ((1, 2, 1000, 2000, 7), 263550837379141819);
      ((17, 3, 49152, 80, 1), 93383986432196622);
      ((511, 12, 60000, 443, 255), 4529278519970514627);
    ]

let prop_ecmp_not_polymorphic_hash =
  (* The stable hash must not delegate to [Hashtbl.hash]: tracking the
     polymorphic hash under any obvious packing would re-introduce the
     compiler-version dependence D003 exists to prevent. *)
  QCheck.Test.make ~name:"ecmp hash independent of Hashtbl.hash" ~count:200
    QCheck.(quad small_int small_int small_int small_int)
    (fun (src, dst, sport, dport) ->
      let h = Ecmp.hash_fields ~src ~dst ~sport ~dport ~salt:0 in
      h <> Hashtbl.hash (src, dst, sport, dport)
      && h <> Hashtbl.hash [| src; dst; sport; dport |]
      && h <> Hashtbl.hash [ src; dst; sport; dport ])

let test_ecmp_port_spread () =
  (* Per-packet source-port randomisation must spread over all
     next-hops: the core mechanism of the scatter phase. *)
  let n = 8 in
  let counts = Array.make n 0 in
  for sport = 1000 to 1999 do
    let p = mk_pkt ~src:1 ~dst:2 ~src_port:sport ~len:10 () in
    let i = Ecmp.select p ~salt:0 ~n in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d populated reasonably" i) true
        (c > 60 && c < 190))
    counts

let test_ecmp_salts_decorrelate () =
  (* The same flow should not pick the same index at every switch. *)
  let p = mk_pkt () in
  let choices = List.init 32 (fun salt -> Ecmp.select p ~salt ~n:4) in
  check_bool "not all equal" true
    (List.exists (fun c -> c <> List.hd choices) (List.tl choices))

(* ------------------------------------------------------------------ *)
(* Pktqueue *)

let test_queue_fifo () =
  let q = Pktqueue.create ~ctx ~capacity:10 ~layer:Layer.Core_layer () in
  let a = mk_pkt () and b = mk_pkt () in
  check_bool "enq a" true (Pktqueue.enqueue q a);
  check_bool "enq b" true (Pktqueue.enqueue q b);
  check_bool "fifo order" true (Pktqueue.take q == a);
  check_bool "fifo order 2" true (Pktqueue.take q == b);
  check_bool "drained" true (Pktqueue.is_empty q);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Pktqueue.take: empty queue") (fun () ->
      ignore (Pktqueue.take q))

let test_queue_drop_tail () =
  let q = Pktqueue.create ~ctx ~capacity:2 ~layer:Layer.Core_layer () in
  check_bool "1 fits" true (Pktqueue.enqueue q (mk_pkt ()));
  check_bool "2 fits" true (Pktqueue.enqueue q (mk_pkt ()));
  check_bool "3 dropped" false (Pktqueue.enqueue q (mk_pkt ()));
  let st = Pktqueue.stats q in
  check_int "drop counted" 1 st.Pktqueue.dropped;
  check_int "enq counted" 2 st.Pktqueue.enqueued

let test_queue_backlog_accounting () =
  let q = Pktqueue.create ~ctx ~capacity:10 ~layer:Layer.Edge_layer () in
  let p = mk_pkt ~len:960 () in
  ignore (Pktqueue.enqueue q p);
  check_int "backlog pkts" 1 (Pktqueue.backlog_pkts q);
  check_int "backlog bytes" 1000 (Pktqueue.backlog_bytes q);
  ignore (Pktqueue.take q);
  check_int "empty bytes" 0 (Pktqueue.backlog_bytes q)

(* The queue against a Stdlib.Queue of uids, over a fixed sequence of
   bursts and drains that wraps the ring far more than three times its
   capacity. Taken packets go back to the pool, so records are reused
   under new uids. The opening grows the ring while its live span
   wraps: five packets in and out move the head to slot 5 of the
   initial ring of 8, eight more fill it across the end, and the ninth
   grows it. Drops happen at capacity only, each hook sees the packet
   still live (its conn still counts it), and the free follows the
   last hook. *)
let test_queue_ring_wraps () =
  let cap = 20 and conn = 77 in
  let q = Pktqueue.create ~ctx ~capacity:cap ~layer:Layer.Agg_layer () in
  let model = Queue.create () in
  let hooked = ref [] in
  Pktqueue.add_drop_hook q (fun p ->
      hooked := (p.Packet.uid, Packet.live_packets ~ctx ~conn) :: !hooked);
  let taken = ref 0 and drops = ref 0 and high = ref 0 and bytes = ref 0 in
  let enq len =
    let p = mk_pkt ~conn ~len () in
    let uid = p.Packet.uid in
    let live = Packet.live_packets ~ctx ~conn in
    let full = Queue.length model = cap in
    let accepted = Pktqueue.enqueue q p in
    check_bool "drops exactly at capacity" full (not accepted);
    if accepted then begin
      Queue.push (uid, len) model;
      bytes := !bytes + len + Packet.header_bytes;
      high := max !high (Queue.length model)
    end
    else begin
      incr drops;
      (match !hooked with
       | (u, l) :: _ ->
         check_int "hook saw the dropped packet" uid u;
         check_int "hook ran before the free" live l
       | [] -> Alcotest.fail "drop hook not called");
      check_int "freed after the hooks" (live - 1)
        (Packet.live_packets ~ctx ~conn)
    end
  in
  let deq () =
    let uid, len = Queue.pop model in
    let p = Pktqueue.take q in
    check_int "fifo order" uid p.Packet.uid;
    check_int "fifo payload" len p.Packet.len;
    bytes := !bytes - len - Packet.header_bytes;
    Packet.free ~ctx p;
    incr taken
  in
  for i = 1 to 5 do enq i done;
  for _ = 1 to 5 do deq () done;
  for i = 1 to 12 do enq (100 + i) done;
  let i = ref 0 in
  while !taken < 4 * cap do
    incr i;
    (* Bursts of up to 25 (past capacity), drains of up to 17. *)
    for _ = 1 to (!i * 7) mod 26 do enq (!i mod 1000) done;
    for _ = 1 to min (Queue.length model) ((!i * 5) mod 18) do deq () done;
    check_int "backlog pkts" (Queue.length model) (Pktqueue.backlog_pkts q);
    check_int "backlog bytes" !bytes (Pktqueue.backlog_bytes q)
  done;
  while not (Queue.is_empty model) do deq () done;
  check_bool "empty" true (Pktqueue.is_empty q);
  check_int "no bytes left" 0 (Pktqueue.backlog_bytes q);
  let st = Pktqueue.stats q in
  check_bool "some drops" true (!drops > 0);
  check_int "drops counted" !drops st.Pktqueue.dropped;
  check_int "every hook ran" !drops (List.length !hooked);
  check_int "max backlog" !high st.Pktqueue.max_backlog;
  check_int "max backlog at capacity" cap st.Pktqueue.max_backlog

let prop_queue_never_exceeds_capacity =
  QCheck.Test.make ~name:"queue backlog <= capacity" ~count:200
    QCheck.(pair (int_range 1 20) (list bool))
    (fun (cap, ops) ->
      let q = Pktqueue.create ~ctx ~capacity:cap ~layer:Layer.Host_layer () in
      List.iter
        (fun enq ->
          if enq then ignore (Pktqueue.enqueue q (mk_pkt ()))
          else if not (Pktqueue.is_empty q) then ignore (Pktqueue.take q))
        ops;
      Pktqueue.backlog_pkts q <= cap)

(* ------------------------------------------------------------------ *)
(* Link *)

(* Timing-sensitive tests use jitterless links so arrival instants are
   exact. *)
let make_link ?(rate = 100e6) ?(delay = Time.of_us 20.) ?(cap = 10) sched =
  let queue = Pktqueue.create ~ctx ~capacity:cap ~layer:Layer.Core_layer () in
  Link.create ~jitter:Time.zero ~sched ~rate_bps:rate ~delay ~queue ~id:0 ()

let test_link_delivery_time () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  let arrival = ref Time.zero in
  Link.attach link (fun _ -> arrival := Scheduler.now sched);
  (* 1000B at 100 Mb/s = 80 us serialisation + 20 us propagation. *)
  Link.send link (mk_pkt ~len:960 ());
  Scheduler.run sched;
  Alcotest.(check (float 0.01)) "tx + prop delay" 100. (Time.to_us !arrival)

let test_link_pipelining () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  let times = ref [] in
  Link.attach link (fun _ -> times := Time.to_us (Scheduler.now sched) :: !times);
  Link.send link (mk_pkt ~len:960 ());
  Link.send link (mk_pkt ~len:960 ());
  Scheduler.run sched;
  (* Second packet starts serialising when the first finishes: arrivals
     at 100 us and 180 us. *)
  Alcotest.(check (list (float 0.01))) "pipelined arrivals" [ 100.; 180. ]
    (List.rev !times)

let test_link_drop_when_full () =
  let sched = Scheduler.create () in
  let link = make_link ~cap:2 sched in
  let received = ref 0 in
  Link.attach link (fun _ -> incr received);
  (* First packet dequeues immediately into the transmitter, so
     capacity 2 queues two more; the 4th is dropped. *)
  for _ = 1 to 4 do
    Link.send link (mk_pkt ())
  done;
  Scheduler.run sched;
  check_int "3 delivered" 3 !received;
  check_int "1 dropped" 1 (Pktqueue.stats (Link.queue link)).Pktqueue.dropped

let test_link_utilisation () =
  let sched = Scheduler.create () in
  let link = make_link ~delay:Time.zero sched in
  let sink = ref 0 in
  Link.attach link (fun _ -> incr sink);
  for _ = 1 to 5 do
    Link.send link (mk_pkt ~len:960 ())
  done;
  Scheduler.run sched;
  (* 5 packets x 80us back to back: busy the whole time. *)
  let u = Link.utilisation link ~now:(Scheduler.now sched) in
  check_bool "fully utilised" true (u > 0.99 && u <= 1.01)

let test_link_requires_attach () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  Alcotest.check_raises "unattached" (Failure "Link.send: no receiver attached")
    (fun () -> Link.send link (mk_pkt ()))

(* Per-hop event cost. A packet that finds the transmitter free costs
   one event, its rx; a tx-done fires only for a packet that waits
   behind another. [Link_ref], the two-event link it replaced, fired a
   tx-done for every packet. *)
let test_link_events_spaced () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  Link.attach link ignore;
  (* 80 us of serialisation every 200 us. *)
  for i = 0 to 9 do
    Scheduler.run ~until:(Time.of_us (200. *. float_of_int i)) sched;
    Link.send link (mk_pkt ~len:960 ())
  done;
  Scheduler.run sched;
  check_int "one event per packet" 10 (Scheduler.events_processed sched)

let test_link_events_burst () =
  let burst send =
    for _ = 1 to 10 do
      send (mk_pkt ~len:960 ())
    done
  in
  let sched = Scheduler.create () in
  let link = make_link ~cap:20 sched in
  Link.attach link ignore;
  burst (Link.send link);
  Scheduler.run sched;
  check_int "2N - 1 events" 19 (Scheduler.events_processed sched);
  let sched = Scheduler.create () in
  let queue = Pktqueue.create ~ctx ~capacity:20 ~layer:Layer.Core_layer () in
  let ref_link =
    Link_ref.create ~jitter:Time.zero ~sched ~rate_bps:100e6
      ~delay:(Time.of_us 20.) ~queue ~id:0 ()
  in
  Link_ref.attach ref_link ignore;
  burst (Link_ref.send ref_link);
  Scheduler.run sched;
  check_int "two-event link: 2N events" 20 (Scheduler.events_processed sched)

let test_link_send_at_tx_end () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  let starts = ref [] and arrivals = ref [] in
  Link.add_tap link (fun _ -> starts := Time.to_us (Scheduler.now sched) :: !starts);
  Link.attach link (fun _ ->
      arrivals := Time.to_us (Scheduler.now sched) :: !arrivals);
  Link.send link (mk_pkt ~len:960 ());
  Scheduler.run ~until:(Time.of_us 80.) sched;
  Link.send link (mk_pkt ~len:960 ());
  Scheduler.run sched;
  Alcotest.(check (list (float 0.01))) "starts at once" [ 0.; 80. ]
    (List.rev !starts);
  Alcotest.(check (list (float 0.01))) "end + tx + delay" [ 100.; 180. ]
    (List.rev !arrivals);
  check_int "no tx-done" 2 (Scheduler.events_processed sched)

(* Differential: [Link] against [Link_ref] on one link. A schedule of
   sends and reserved-rate changes is planned on the reference: each
   step comes at the same instant as the one before, at exactly the
   end of the serialisation under way, or a random gap later. Sizes
   are random and the queue small, so bursts overflow it. The schedule
   is then played on each link by the driver: it runs the link's
   events up to each new instant, then makes every step of that
   instant back to back. Each step thus comes after the link's own
   events at its instant, and no event runs between two steps of one
   instant: a lone link has no foreign ties. Both links must give the same deliveries,
   starts and drops at the same instants, in the same order, and the
   same stats. (A step armed as an event before the run would tie with
   the link's: a send at exactly the end of a serialisation would then
   find [Link]'s transmitter free but [Link_ref]'s tx-done still
   pending, which is the tie order the one-event link moves.) *)
type gap = Same | At_tx_end | After of int  (* ns *)
type step = Send of int  (* payload bytes *) | Reserve of int  (* % of rate *)

type link_case = {
  rate : float;
  delay_ns : int;
  jittered : bool;
  cap : int;
  steps : (gap * step) list;
}

let print_link_case c =
  Printf.sprintf "rate %g delay %d ns jitter %b cap %d: %s" c.rate c.delay_ns
    c.jittered c.cap
    (String.concat " "
       (List.map
          (fun (g, st) ->
            (match g with
            | Same -> "="
            | At_tx_end -> "@end"
            | After d -> Printf.sprintf "+%d" d)
            ^
            match st with
            | Send n -> Printf.sprintf ":send%d" n
            | Reserve r -> Printf.sprintf ":res%d%%" r)
          c.steps))

let gen_link_case =
  QCheck.Gen.(
    let gap =
      frequency
        [
          (3, return Same);
          (3, return At_tx_end);
          (4, map (fun d -> After d) (int_range 1 30_000));
        ]
    in
    let step =
      frequency
        [
          (8, map (fun n -> Send n) (int_range 1 1460));
          (1, map (fun r -> Reserve r) (oneofl [ 0; 30; 70; 100 ]));
        ]
    in
    map
      (fun ((rate, delay_ns), (jittered, cap), steps) ->
        { rate; delay_ns; jittered; cap; steps })
      (triple
         (pair (oneofl [ 1e8; 1e9; 1e10 ]) (int_range 0 50_000))
         (pair bool (int_range 1 6))
         (list_size (int_range 1 60) (pair gap step))))

(* One link of either kind behind the same four operations. *)
type any_link = {
  send : Packet.t -> unit;
  reserve : float -> unit;
  tap : (Packet.t -> unit) -> unit;
  link_stats : unit -> int * int * int;
}

let build_link ~reference sched (c : link_case) ~deliver ~drop =
  let queue = Pktqueue.create ~ctx ~capacity:c.cap ~layer:Layer.Core_layer () in
  Pktqueue.add_drop_hook queue drop;
  let jitter = if c.jittered then Time.of_us 5. else Time.zero in
  let delay = Time.of_ns c.delay_ns in
  if reference then begin
    let l = Link_ref.create ~jitter ~sched ~rate_bps:c.rate ~delay ~queue ~id:7 () in
    Link_ref.attach l deliver;
    {
      send = Link_ref.send l;
      reserve = Link_ref.set_reserved_bps l;
      tap = Link_ref.add_tap l;
      link_stats =
        (fun () ->
          let s = Link_ref.stats l in
          (s.tx_packets, s.tx_bytes, s.busy_ns));
    }
  end
  else begin
    let l = Link.create ~jitter ~sched ~rate_bps:c.rate ~delay ~queue ~id:7 () in
    Link.attach l deliver;
    {
      send = Link.send l;
      reserve = Link.set_reserved_bps l;
      tap = Link.add_tap l;
      link_stats =
        (fun () ->
          let s = Link.stats l in
          (s.tx_packets, s.tx_bytes, s.busy_ns));
    }
  end

(* Run [sched] up to [at] ns unless it is there already. *)
let advance sched at =
  if at > Time.to_ns (Scheduler.now sched) then
    Scheduler.run ~until:(Time.of_ns at) sched

let apply (l : any_link) c tag = function
  | Send n -> l.send (mk_pkt ~seq:tag ~len:n ())
  | Reserve r -> l.reserve (c.rate *. float_of_int r /. 100.)

(* Absolute instants of [c.steps], read off the reference driven step
   by step: a tap sees each start, and the stats' serialisation total
   gives its end. *)
let plan_link_case c =
  let sched = Scheduler.create () in
  let l = build_link ~reference:true sched c ~deliver:ignore ~drop:ignore in
  let tx_end = ref 0 and busy = ref 0 in
  l.tap (fun _ ->
      let _, _, b = l.link_stats () in
      tx_end := Time.to_ns (Scheduler.now sched) + b - !busy;
      busy := b);
  let now = ref 0 in
  List.mapi
    (fun tag (g, st) ->
      (match g with
      | Same -> ()
      | At_tx_end -> now := max !now !tx_end
      | After d -> now := !now + d);
      advance sched !now;
      apply l c tag st;
      (!now, tag, st))
    c.steps

type link_log = {
  rx : (int * int) list;  (* (ns, tag), newest first *)
  starts : (int * int) list;
  drops : (int * int) list;
  final : int * int * int;
}

let play_link_case ~reference c plan =
  let sched = Scheduler.create () in
  let rx = ref [] and starts = ref [] and drops = ref [] in
  let note r (p : Packet.t) =
    r := (Time.to_ns (Scheduler.now sched), p.Packet.seq) :: !r
  in
  let l =
    build_link ~reference sched c ~deliver:(note rx) ~drop:(note drops)
  in
  l.tap (note starts);
  List.iter
    (fun (at, tag, st) ->
      advance sched at;
      apply l c tag st)
    plan;
  Scheduler.run sched;
  { rx = !rx; starts = !starts; drops = !drops; final = l.link_stats () }

let prop_link_matches_reference =
  QCheck.Test.make ~name:"link matches the two-event reference" ~count:300
    (QCheck.make ~print:print_link_case gen_link_case)
    (fun c ->
      let plan = plan_link_case c in
      let want = play_link_case ~reference:true c plan in
      let got = play_link_case ~reference:false c plan in
      if got <> want then
        QCheck.Test.fail_reportf "differs: rx %b, starts %b, drops %b, stats %b"
          (got.rx = want.rx) (got.starts = want.starts)
          (got.drops = want.drops) (got.final = want.final);
      true)

(* ------------------------------------------------------------------ *)
(* Host *)

let test_host_demux () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 9) in
  let got = ref [] in
  Host.bind h ~conn:7 (fun p -> got := p.Packet.conn :: !got);
  let p7 = mk_pkt ~src:0 ~dst:9 ~conn:7 ~len:1 () in
  let p8 = mk_pkt ~src:0 ~dst:9 ~conn:8 ~len:1 () in
  Host.receive h p7;
  Host.receive h p8;
  Alcotest.(check (list int)) "bound conn delivered" [ 7 ] !got;
  check_int "unmatched counted" 1 (Host.unmatched h)

let test_host_double_bind_rejected () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 1) in
  Host.bind h ~conn:1 ignore;
  Alcotest.check_raises "double bind"
    (Invalid_argument "Host.bind: connection id already bound") (fun () ->
      Host.bind h ~conn:1 ignore)

let test_host_unbind () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 1) in
  Host.bind h ~conn:1 ignore;
  Host.unbind h ~conn:1;
  Host.bind h ~conn:1 ignore;
  check_int "no unmatched" 0 (Host.unmatched h)

(* Binds, unbinds and deliveries in any conn-id order against a
   hashtable: each packet reaches the handler bound last to its conn,
   or counts as unmatched; a second bind is refused and changes
   nothing. *)
type host_op = Bind | Unbind | Deliver

let prop_host_demux_matches_table =
  QCheck.Test.make ~name:"host demux matches a table" ~count:200
    QCheck.(list (pair (int_bound 40) (oneofl [ Bind; Unbind; Deliver ])))
    (fun ops ->
      let sched = Scheduler.create () in
      let h = Host.create ~sched ~addr:(Addr.of_int 1) in
      let model = Hashtbl.create 16 and unmatched = ref 0 in
      let got = ref [] and want = ref [] in
      List.iteri
        (fun tag (conn, op) ->
          match op with
          | Bind -> (
            match Host.bind h ~conn (fun p -> got := (p.Packet.conn, tag) :: !got) with
            | () ->
              if Hashtbl.mem model conn then failwith "bound twice";
              Hashtbl.replace model conn tag
            | exception Invalid_argument _ ->
              if not (Hashtbl.mem model conn) then failwith "refused a free id")
          | Unbind ->
            Host.unbind h ~conn;
            Hashtbl.remove model conn
          | Deliver -> (
            Host.receive h (mk_pkt ~dst:1 ~conn ());
            match Hashtbl.find_opt model conn with
            | Some t -> want := (conn, t) :: !want
            | None -> incr unmatched))
        ops;
      !got = !want && Host.unmatched h = !unmatched)

let test_host_needs_nic () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 1) in
  Alcotest.check_raises "no nic" (Failure "Host.send: host has no NIC") (fun () ->
      Host.send h (mk_pkt ()))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_net"
    [
      ( "packet",
        [
          Alcotest.test_case "wire size" `Quick test_packet_size;
          Alcotest.test_case "unique uids" `Quick test_packet_uids_unique;
          Alcotest.test_case "classification" `Quick test_packet_classify;
          Alcotest.test_case "copy independent of freed original" `Quick
            test_pool_copy_independent;
          Alcotest.test_case "fresh uid on pool reuse" `Quick
            test_pool_fresh_uid_on_reuse;
          Alcotest.test_case "sack scratch isolation" `Quick
            test_pool_sack_isolation;
          Alcotest.test_case "sanitizer catches use-after-free" `Quick
            test_pool_sanitizer_catches_uaf;
          Alcotest.test_case "pool live counter balances" `Quick
            test_pool_live_total;
          Alcotest.test_case "addresses" `Quick test_addr;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "deterministic" `Quick test_ecmp_deterministic;
          Alcotest.test_case "flow consistent" `Quick test_ecmp_flow_consistent;
          Alcotest.test_case "port randomisation spreads" `Quick test_ecmp_port_spread;
          Alcotest.test_case "salts decorrelate" `Quick test_ecmp_salts_decorrelate;
          Alcotest.test_case "stable hash golden values" `Quick test_ecmp_hash_golden;
          qt prop_ecmp_in_range;
          qt prop_ecmp_pure_function;
          qt prop_ecmp_not_polymorphic_hash;
        ] );
      ( "pktqueue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drop tail" `Quick test_queue_drop_tail;
          Alcotest.test_case "backlog accounting" `Quick test_queue_backlog_accounting;
          Alcotest.test_case "ring wraps, grows and drops" `Quick
            test_queue_ring_wraps;
          qt prop_queue_never_exceeds_capacity;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "pipelining" `Quick test_link_pipelining;
          Alcotest.test_case "drop when full" `Quick test_link_drop_when_full;
          Alcotest.test_case "utilisation" `Quick test_link_utilisation;
          Alcotest.test_case "requires attach" `Quick test_link_requires_attach;
          Alcotest.test_case "one event per spaced packet" `Quick
            test_link_events_spaced;
          Alcotest.test_case "2N - 1 events per burst" `Quick
            test_link_events_burst;
          Alcotest.test_case "send at tx end starts at once" `Quick
            test_link_send_at_tx_end;
          qt prop_link_matches_reference;
        ] );
      ( "host",
        [
          Alcotest.test_case "demux" `Quick test_host_demux;
          Alcotest.test_case "double bind rejected" `Quick test_host_double_bind_rejected;
          Alcotest.test_case "unbind" `Quick test_host_unbind;
          Alcotest.test_case "needs nic" `Quick test_host_needs_nic;
          qt prop_host_demux_matches_table;
        ] );
    ]

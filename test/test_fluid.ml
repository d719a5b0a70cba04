(* Tests for the fluid flow-level engine: allocator invariants
   (qcheck), analytic-FCT sanity, and a golden fluid-vs-packet
   cross-check at tiny scale.

   The two allocator properties pinned here are the ones the design
   leans on (DESIGN.md §4k): per-link conservation under arbitrary
   mutation histories, and the weighted max-min bottleneck condition
   from an all-dirty flush. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Alloc = Sim_fluid.Alloc
module Engine = Sim_fluid.Engine
module Scenario = Sim_workload.Scenario

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Generators: a random link set plus flows over random paths. *)

type case = {
  caps : float array;
  specs : (float * int list * bool) list;
      (* weight, path (distinct link ids), removed-later flag *)
}

let gen_case =
  let open QCheck.Gen in
  int_range 2 6 >>= fun nlinks ->
  array_size (return nlinks) (float_range 1e6 1e8) >>= fun caps ->
  let gen_path =
    int_range 1 nlinks >>= fun len ->
    shuffle_l (List.init nlinks Fun.id) >>= fun perm ->
    return (List.filteri (fun i _ -> i < len) perm)
  in
  list_size (int_range 1 25) (triple (float_range 0.5 4.) gen_path bool)
  >>= fun specs -> return { caps; specs }

let print_case c =
  Printf.sprintf "links=%d caps=[%s] flows=[%s]" (Array.length c.caps)
    (String.concat ";"
       (Array.to_list (Array.map (Printf.sprintf "%.0f") c.caps)))
    (String.concat "; "
       (List.map
          (fun (w, p, rm) ->
            Printf.sprintf "w=%.2f path=%s%s" w
              (String.concat "," (List.map string_of_int p))
              (if rm then " rm" else ""))
          c.specs))

let arb_case = QCheck.make ~print:print_case gen_case

(* Flows are spread over three owners, so the properties hold with
   callbacks grouped the way the engine groups a connection's legs. *)
let build case =
  let t = Alloc.create ~caps:case.caps ~on_rate:(fun _ -> ()) () in
  let flows =
    List.mapi
      (fun i (w, path, rm) ->
        ( Alloc.add t ~owner:(i mod 3) ~weight:w ~path:(Array.of_list path)
            ~data:(),
          path,
          rm ))
      case.specs
  in
  (t, flows)

(* Committed rates may lag the exact water-fill by the commit
   threshold (relative 1e-3), so invariants are checked with a little
   slack on top. *)
let tol = 1e-2

(* Per-link conservation: the sum of member rates never exceeds the
   link's capacity — including after removals and a second flush. *)
let prop_conservation =
  QCheck.Test.make ~name:"per-link rate conservation" ~count:200 arb_case
    (fun case ->
      let t, flows = build case in
      Alloc.flush t ~now:0.;
      let conserved alive =
        Array.for_all Fun.id
          (Array.init (Array.length case.caps) (fun li ->
               let sum =
                 List.fold_left
                   (fun acc (f, path, _) ->
                     if List.mem li path then acc +. Alloc.rate f else acc)
                   0. alive
               in
               sum <= (Alloc.link_avail t ~link:li *. (1. +. tol)) +. 1.))
      in
      let ok1 = conserved flows in
      let survivors = List.filter (fun (_, _, rm) -> not rm) flows in
      List.iter (fun (f, _, rm) -> if rm then Alloc.remove t ~now:1. f) flows;
      Alloc.flush t ~now:1.;
      ok1 && conserved survivors)

(* Max-min fairness, bottleneck form: after an all-dirty flush, every
   flow has a saturated path link on which its normalised rate
   (rate/weight) is maximal among the link's members — i.e. no flow
   could be raised without lowering a poorer one. *)
let prop_maxmin_bottleneck =
  QCheck.Test.make ~name:"max-min bottleneck condition" ~count:200 arb_case
    (fun case ->
      let t, flows = build case in
      Alloc.flush t ~now:0.;
      List.for_all
        (fun (f, path, _) ->
          List.exists
            (fun li ->
              let sum, norm_max =
                List.fold_left
                  (fun (s, m) (g, gpath, _) ->
                    if List.mem li gpath then
                      (s +. Alloc.rate g,
                       Float.max m (Alloc.rate g /. Alloc.weight g))
                    else (s, m))
                  (0., 0.) flows
              in
              let avail = Alloc.link_avail t ~link:li in
              sum >= avail *. (1. -. tol)
              && Alloc.rate f /. Alloc.weight f >= norm_max *. (1. -. tol))
            path)
        flows)

(* The callback contract: one [on_rate] per owner with a changed flow,
   after the whole pass, passing the owner's last changed flow and
   ordering owners by its position. Three owners over five 12 Mb/s
   links; every rate below follows from water-filling by hand. *)
let test_callback_per_owner () =
  let fired = ref [] in
  let t =
    Alloc.create ~caps:(Array.make 5 12e6)
      ~on_rate:(fun f -> fired := Alloc.data f :: !fired)
      ()
  in
  (* [List.map] adds in list order (a list literal would not). *)
  let flows =
    List.map
      (fun (owner, name, path) ->
        (name, Alloc.add t ~owner ~weight:1. ~path ~data:(owner, name)))
      [
        (0, "a1", [| 0 |]);
        (1, "b1", [| 0; 1 |]);
        (2, "c1", [| 1 |]);
        (1, "b2", [| 2 |]);
        (0, "a2", [| 2; 3 |]);
        (2, "c2", [| 3 |]);
        (0, "a3", [| 4 |]);
      ]
  in
  let flow name = List.assoc name flows in
  let expect what want =
    Alcotest.(check (list (pair int string))) what want (List.rev !fired);
    fired := []
  in
  (* All seven change from 0 in queue (= add) order a1 b1 c1 b2 a2 c2
     a3: owner 1 last changes at b2, owner 2 at c2, owner 0 at a3.
     Every link settles at 6 Mb/s a flow, link 4 at 12. *)
  Alloc.flush t ~now:0.;
  expect "first flush" [ (1, "b2"); (2, "c2"); (0, "a3") ];
  Alcotest.(check (float 1.)) "a1 rate" 6e6 (Alloc.rate (flow "a1"));
  Alcotest.(check (float 1.)) "a3 rate" 12e6 (Alloc.rate (flow "a3"));
  (* Only a3 crosses link 4: owners 1 and 2 stay silent. *)
  Alloc.set_avail t ~link:4 3e6;
  Alloc.flush t ~now:1.;
  expect "flush touching one owner" [ (0, "a3") ];
  (* Settle in array order b1 a1 b2 c1 against links 1 and 2 cut to
     6 Mb/s: b2 drops to 0 (a2 keeps link 2), b1 and c1 to 3, a1
     rises to 9. Owner 1 changes at b1 and b2, so it fires at b2,
     after owner 0's a1. *)
  Alloc.set_avail t ~link:1 6e6;
  Alloc.set_avail t ~link:2 6e6;
  Alloc.settle t ~now:2. (Array.map flow [| "b1"; "a1"; "b2"; "c1" |]);
  expect "settle" [ (0, "a1"); (1, "b2"); (2, "c1") ];
  List.iter
    (fun (name, want) ->
      Alcotest.(check (float 1.)) (name ^ " settled") want
        (Alloc.rate (flow name)))
    [ ("b1", 3e6); ("a1", 9e6); ("b2", 0.); ("c1", 3e6) ]

(* A flow with an empty path crosses no link: [add] gives it the
   unconstrained rate, and a [settle] that includes it has no
   bottleneck to lower it to. *)
let test_empty_path_settle () =
  let t = Alloc.create ~caps:[| 12e6 |] ~on_rate:(fun _ -> ()) () in
  let f = Alloc.add t ~owner:0 ~weight:1. ~path:[||] ~data:() in
  Alcotest.(check (float 0.)) "after add" 1e15 (Alloc.rate f);
  Alloc.settle t ~now:0. [| f |];
  Alcotest.(check (float 0.)) "after settle" 1e15 (Alloc.rate f)

(* ------------------------------------------------------------------ *)
(* Differential: [Alloc] against [Alloc_ref], the record-based
   allocator it replaced, over random mutation histories. Removes
   and adds are dense between flushes, so flow ids are freed and
   handed out again many times per history. *)

type op =
  | Add of int * float * int list  (* owner, weight, path *)
  | Remove of int  (* the (i mod added)-th flow added so far *)
  | Set_avail of int * float  (* link, fraction of its capacity *)
  | Flush
  | Settle of int list  (* picks among the live flows *)

let print_op = function
  | Add (o, w, p) ->
    Printf.sprintf "add(o=%d w=%.3f [%s])" o w
      (String.concat "," (List.map string_of_int p))
  | Remove i -> Printf.sprintf "remove %d" i
  | Set_avail (li, x) -> Printf.sprintf "avail %d %.3f" li x
  | Flush -> "flush"
  | Settle l ->
    Printf.sprintf "settle [%s]" (String.concat "," (List.map string_of_int l))

(* Histories over [nlinks] links with capacities from [gen_cap] and
   flow weights from [gen_weight]. *)
let gen_history ~nlinks ~gen_cap ~gen_weight =
  let open QCheck.Gen in
  nlinks >>= fun nlinks ->
  array_size (return nlinks) gen_cap >>= fun caps ->
  let gen_path =
    int_range 0 nlinks >>= fun len ->
    shuffle_l (List.init nlinks Fun.id) >|= fun perm ->
    List.filteri (fun i _ -> i < len) perm
  in
  let gen_op =
    frequency
      [
        ( 4,
          map3 (fun o w p -> Add (o, w, p)) (int_bound 3) gen_weight gen_path );
        (4, map (fun i -> Remove i) nat);
        ( 1,
          map2
            (fun li x -> Set_avail (li, x))
            (int_bound (nlinks - 1))
            (float_range 0. 1.2) );
        (2, return Flush);
        (1, map (fun l -> Settle l) (list_size (int_range 1 3) nat));
      ]
  in
  list_size (int_range 1 120) gen_op >|= fun ops -> (caps, ops)

let arb_history gen =
  QCheck.make
    ~print:(fun (caps, ops) ->
      Printf.sprintf "caps=[%s] ops=[%s]"
        (String.concat ";"
           (Array.to_list (Array.map (Printf.sprintf "%.0f") caps)))
        (String.concat "; " (List.map print_op ops)))
    gen

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let differential ~name gen =
  QCheck.Test.make ~name ~count:500 (arb_history gen) (fun (caps, ops) ->
      let fired_new = ref [] and fired_ref = ref [] in
      let removed = Hashtbl.create 16 in
      let t =
        Alloc.create ~caps
          ~on_rate:(fun f ->
            let i = Alloc.data f in
            if Hashtbl.mem removed i then
              QCheck.Test.fail_reportf "removed flow %d reached on_rate" i;
            fired_new := i :: !fired_new)
          ()
      in
      let r =
        Alloc_ref.create ~caps
          ~on_rate:(fun f -> fired_ref := Alloc_ref.data f :: !fired_ref)
          ()
      in
      (* i-th added flow: (new handle, reference handle) *)
      let flows = ref [||] in
      let now = ref 0. in
      let live () =
        List.filter
          (fun i -> not (Hashtbl.mem removed i))
          (List.init (Array.length !flows) Fun.id)
      in
      let check step =
        if !fired_new <> !fired_ref then
          QCheck.Test.fail_reportf "step %d: on_rate sequence [%s] <> [%s]"
            step
            (String.concat "," (List.rev_map string_of_int !fired_new))
            (String.concat "," (List.rev_map string_of_int !fired_ref));
        Array.iteri
          (fun i (f, g) ->
            let want = if Hashtbl.mem removed i then 0. else Alloc_ref.rate g in
            if not (same_float (Alloc.rate f) want) then
              QCheck.Test.fail_reportf "step %d: flow %d rate %h <> %h" step i
                (Alloc.rate f) want)
          !flows;
        Array.iteri
          (fun li _ ->
            if
              not
                (same_float (Alloc.link_alloc t ~link:li)
                   (Alloc_ref.link_alloc r ~link:li))
            then QCheck.Test.fail_reportf "step %d: link %d alloc differs" step li)
          caps;
        if
          ( Alloc.pending_dirty t,
            Alloc.live_flows t,
            Alloc.waves_run t,
            Alloc.heap_pops t )
          <> ( Alloc_ref.pending_dirty r,
               Alloc_ref.live_flows r,
               Alloc_ref.waves_run r,
               Alloc_ref.heap_pops r )
        then QCheck.Test.fail_reportf "step %d: counters differ" step
      in
      List.iteri
        (fun step op ->
          now := !now +. 1e-3;
          (match op with
          | Add (owner, weight, path) ->
            let path = Array.of_list path in
            let i = Array.length !flows in
            let f = Alloc.add t ~owner ~weight ~path ~data:i in
            let g = Alloc_ref.add r ~owner ~weight ~path ~data:i in
            flows := Array.append !flows [| (f, g) |]
          | Remove k ->
            let n = Array.length !flows in
            if n > 0 then begin
              let i = k mod n in
              let f, g = !flows.(i) in
              Hashtbl.replace removed i ();
              Alloc.remove t ~now:!now f;
              Alloc_ref.remove r ~now:!now g
            end
          | Set_avail (link, x) ->
            Alloc.set_avail t ~link (x *. caps.(link));
            Alloc_ref.set_avail r ~link (x *. caps.(link))
          | Flush ->
            Alloc.flush t ~now:!now;
            Alloc_ref.flush r ~now:!now
          | Settle picks -> (
            match live () with
            | [] -> ()
            | alive ->
              let alive = Array.of_list alive in
              let picks =
                Array.of_list
                  (List.sort_uniq compare
                     (List.map (fun k -> alive.(k mod Array.length alive)) picks))
              in
              Alloc.settle t ~now:!now (Array.map (fun i -> fst !flows.(i)) picks);
              Alloc_ref.settle r ~now:!now
                (Array.map (fun i -> snd !flows.(i)) picks)));
          check step)
        ops;
      true)

(* Continuous capacities and weights: bottleneck levels never tie. *)
let prop_differential =
  differential ~name:"alloc matches the record-based reference"
    (gen_history
       ~nlinks:(QCheck.Gen.int_range 2 6)
       ~gen_cap:(QCheck.Gen.float_range 1e6 1e8)
       ~gen_weight:(QCheck.Gen.float_range 0.5 4.))

(* Two capacities and three weights over many links: equal levels are
   common, so the pops depend on the heap's link-id tie-break, and the
   heap is deep enough for the hole to walk several levels. *)
let prop_differential_ties =
  differential ~name:"alloc matches the reference under ties"
    (gen_history
       ~nlinks:(QCheck.Gen.int_range 6 24)
       ~gen_cap:(QCheck.Gen.oneofl [ 1e7; 1e8 ])
       ~gen_weight:(QCheck.Gen.oneofl [ 0.5; 1.; 2. ]))

(* ------------------------------------------------------------------ *)
(* Engine: analytic FCT is monotone in flow size when uncontended. *)

let run_alone size =
  let sched = Scheduler.create () in
  let eng = Engine.make ~sched ~cap_bps:[| 1e8 |] () in
  let legs = [| { Engine.path = [| 0 |]; weight = 1.; rtt_s = 1e-4 } |] in
  let conn = Engine.start eng ~legs ~size ~on_complete:(fun _ -> ()) () in
  Scheduler.run sched;
  conn

let fct_of_size size =
  match Engine.conn_fct (run_alone size) with
  | Some fct -> Time.to_sec fct
  | None -> Alcotest.failf "size %d never completed" size

let test_fct_monotone () =
  let sizes = [ 1_000; 10_000; 70_000; 500_000; 5_000_000 ] in
  let fcts = List.map fct_of_size sizes in
  List.iteri
    (fun i fct ->
      if i > 0 then
        check_bool
          (Printf.sprintf "fct(%d) < fct(%d)" (List.nth sizes (i - 1))
             (List.nth sizes i))
          true
          (List.nth fcts (i - 1) < fct))
    fcts

(* And bounded below by serialisation: size bytes over a 100 Mb/s
   link cannot land faster than wire speed. *)
let test_fct_above_serialisation () =
  List.iter
    (fun size ->
      let fct = fct_of_size size in
      check_bool
        (Printf.sprintf "fct(%d) >= serialisation" size)
        true
        (fct >= float_of_int (8 * size) /. 1e8))
    [ 10_000; 500_000 ]

(* A completed transfer reports exactly its size. 197,409 bytes alone on
   the link ends with a sub-byte float residue, which truncating
   [size - remaining] once reported as one byte missing. *)
let test_completed_bytes_exact () =
  List.iter
    (fun size ->
      let conn = run_alone size in
      check_bool "completed" true (Engine.conn_is_complete conn);
      Alcotest.(check int) (Printf.sprintf "bytes of %d" size) size
        (Engine.conn_bytes conn))
    [ 70_000; 197_409 ]

(* A long flow still running when the run stops reports every byte
   sent up to then, not up to its last rate event. Resumed, it skips
   the handshake and slow start, so alone on a 100 Mb/s link it sends
   12.5 MB/s from the first instant. *)
let test_running_bytes_at_horizon () =
  List.iter
    (fun secs ->
      let sched = Scheduler.create () in
      let eng = Engine.make ~sched ~cap_bps:[| 1e8 |] () in
      let legs = [| { Engine.path = [| 0 |]; weight = 1.; rtt_s = 1e-4 } |] in
      let conn =
        Engine.start eng ~resume_from:0 ~legs ~size:1_000_000_000
          ~on_complete:(fun _ -> ())
          ()
      in
      Scheduler.run ~until:(Time.of_sec secs) sched;
      check_bool "still running" false (Engine.conn_is_complete conn);
      let want = 1e8 /. 8. *. secs in
      let got = float_of_int (Engine.conn_bytes conn) in
      check_bool
        (Printf.sprintf "%.0f bytes at %g s, want %.0f" got secs want)
        true
        (Float.abs (got -. want) <= 1.))
    [ 0.5; 1.; 3. ]

(* Two flows share a link, the second joining at 0.1 s, so the first
   runs at two rates. With [probe], the first flow's remaining_bytes is
   sampled every 5 ms. Returns both FCTs (ns) and those samples. *)
let shared_link_run ~probe =
  let sched = Scheduler.create () in
  let p =
    if probe then Some (Sim_engine.Probe.create sched ~interval:(Time.of_ms 5.))
    else None
  in
  let eng = Engine.make ~sched ~cap_bps:[| 1e8 |] () in
  let legs = [| { Engine.path = [| 0 |]; weight = 1.; rtt_s = 1e-4 } |] in
  let start size = Engine.start eng ~legs ~size ~on_complete:(fun _ -> ()) () in
  let long = start 5_000_000 in
  let short = ref None in
  Scheduler.Event.schedule_at
    (Scheduler.Event.pool sched ~fire:(fun f -> f ()))
    (Time.of_ms 100.)
    (fun () -> short := Some (start 1_000_000));
  Option.iter Sim_engine.Probe.start p;
  Scheduler.run ~until:(Time.of_sec 2.) sched;
  let fct c =
    match Engine.conn_fct c with
    | Some t -> Time.to_ns t
    | None -> Alcotest.fail "flow never completed"
  in
  let samples =
    match p with
    | None -> []
    | Some p ->
      let cap = Sim_engine.Probe.capture p in
      let id = Printf.sprintf "c%d" (Engine.conn_id long) in
      Array.to_list cap.Sim_obs.Capture.samples
      |> List.filter_map (fun (_, i, v) ->
             let g = cap.Sim_obs.Capture.gauges.(i) in
             if g.Sim_obs.Metrics.id = id && g.name = "remaining_bytes" then
               Some v
             else None)
  in
  ((fct long, fct (Option.get !short)), samples)

(* The gauge reads a running conn's bytes as of each sample, not as of
   its last rate change, and reading it moves nothing. *)
let test_probe_remaining_bytes () =
  let bare, _ = shared_link_run ~probe:false in
  let probed, samples = shared_link_run ~probe:true in
  check_bool "same FCTs probed and unprobed" true (bare = probed);
  let running = List.filter (fun v -> v > 0. && v < 5e6) samples in
  check_bool
    (Printf.sprintf "%d samples while running" (List.length running))
    true
    (List.length running >= 50);
  ignore
    (List.fold_left
       (fun prev v ->
         check_bool (Printf.sprintf "%.0f < %.0f" v prev) true (v < prev);
         v)
       infinity running)

(* ------------------------------------------------------------------ *)
(* Golden cross-check: tiny dumbbell, fluid within 10% of packet on
   mean short-flow FCT (the ext-fluid-xval gate, pinned in-tree). *)

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let tiny_dumbbell model =
  {
    Scenario.default_config with
    Scenario.model;
    topo =
      Scenario.Dumbbell_topo { pairs = 4; bottleneck = Scenario.paper_link_spec };
    protocol = Scenario.Tcp_proto;
    seed = 3;
    long_fraction = 0.;
    short_flows = 40;
    short_rate = 3.;
    horizon = Time.of_sec 4.;
  }

let test_golden_fluid_vs_packet () =
  let fcts model = Scenario.short_fcts_ms (Scenario.run (tiny_dumbbell model)) in
  let p = fcts Scenario.Packet and f = fcts Scenario.Fluid in
  Alcotest.(check int) "all complete" (Array.length p) (Array.length f);
  let dev = Float.abs (mean f -. mean p) /. mean p in
  if dev > 0.10 then
    Alcotest.failf "fluid mean FCT off by %.1f%% (packet %.3fms, fluid %.3fms)"
      (100. *. dev) (mean p) (mean f)

(* Cross-commit golden: an MD5 over every flow's (src, dst, size,
   start, fct) in two tiny FatTree runs, one under each model that
   drives the fluid allocator. The values were recorded before the
   allocator fired its rate callback once per connection instead of
   once per leg, a change that must not move any simulated outcome.
   Bytes delivered are left out: they are checked on their own. *)
let outcome_digest cfg =
  let r = Scenario.run cfg in
  let b = Buffer.create 4096 in
  let flow (f : Scenario.flow_result) =
    Printf.bprintf b "%d %d %d %d %d\n" f.src f.dst f.flow_size
      (Time.to_ns f.start)
      (match f.fct with Some t -> Time.to_ns t | None -> -1)
  in
  Array.iter flow r.shorts;
  Array.iter flow r.longs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let tiny_fattree ?(seed = 5) ~model ~protocol () =
  {
    Scenario.default_config with
    Scenario.model;
    topo = Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:2 ());
    protocol;
    seed;
    short_flows = 200;
    short_rate = 50.;
    horizon = Time.of_sec 1.;
  }

(* The two allocator-driving setups: (name, model, protocol). *)
let fluid_setups =
  [
    ("fluid, MMPTCP", Scenario.Fluid,
     Scenario.Mmptcp_proto Mmptcp.Strategy.default);
    ("hybrid, MPTCP-8", Scenario.Hybrid { handoff_bytes = 10_000 },
     Scenario.Mptcp_proto { subflows = 8; coupled = true });
  ]

let test_golden_outcomes () =
  List.iter2
    (fun (what, model, protocol) want ->
      Alcotest.(check string) what want
        (outcome_digest (tiny_fattree ~model ~protocol ())))
    fluid_setups
    [ "cd729f9c48ba0caa79c1a913af72e5b2"; "222a04fbb5e10d6b043a7ff514f8d2c4" ]

(* Every completed short delivers exactly its size: under fluid (seed
   2 left two sub-byte residues), and under hybrid, where the packet
   stage's bytes plus the fluid continuation's must add up. *)
let test_scenario_bytes_exact () =
  List.iter
    (fun (what, model, protocol) ->
      let r = Scenario.run (tiny_fattree ~seed:2 ~model ~protocol ()) in
      Array.iter
        (fun (f : Scenario.flow_result) ->
          if f.fct <> None then
            Alcotest.(check int) what f.flow_size f.bytes_received)
        r.shorts)
    fluid_setups

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fluid"
    [
      ( "alloc",
        [
          qt prop_conservation;
          qt prop_maxmin_bottleneck;
          Alcotest.test_case "on_rate once per owner" `Quick
            test_callback_per_owner;
          Alcotest.test_case "empty path stays unconstrained" `Quick
            test_empty_path_settle;
          qt prop_differential;
          qt prop_differential_ties;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fct monotone in size" `Quick test_fct_monotone;
          Alcotest.test_case "fct above serialisation" `Quick
            test_fct_above_serialisation;
          Alcotest.test_case "completed bytes exact" `Quick
            test_completed_bytes_exact;
          Alcotest.test_case "running bytes at the horizon" `Quick
            test_running_bytes_at_horizon;
          Alcotest.test_case "scenario bytes exact (tiny fattree)" `Quick
            test_scenario_bytes_exact;
          Alcotest.test_case "probed remaining bytes fall while running"
            `Quick test_probe_remaining_bytes;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fluid tracks packet (tiny dumbbell)" `Quick
            test_golden_fluid_vs_packet;
          Alcotest.test_case "per-flow outcomes unchanged (tiny fattree)"
            `Quick test_golden_outcomes;
        ] );
    ]

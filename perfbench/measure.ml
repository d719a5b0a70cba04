(* What one benchmark child process measures. Each child runs one
   simulation (or one batch of set-ups) on one thread and returns a
   record; the parent process never times anything itself.

   - [setup]: host time of Scheduler.create plus the model's build,
     repeated, everything before the first event.
   - [sim]: one untraced Scenario.run — wall time, peak heap, GC
     counters and the correctness summary.
   - [traced]: the same run with the flow ledger on, a probe that
     samples once at the horizon, GC phases from Runtime_events, and
     spans around the benchmark's own calls into each layer. *)

module Scenario = Sim_workload.Scenario
module Scheduler = Sim_engine.Scheduler
module Time = Sim_engine.Sim_time

let now = Unix.gettimeofday

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "median: no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let build_once (cfg : Scenario.config) =
  let build (module B : Sim_workload.Flow_model.BACKEND) =
    let sched = Scheduler.create () in
    ignore (Sys.opaque_identity (B.build ~sched cfg))
  in
  match cfg.model with
  | Scenario.Packet -> build (module Sim_workload.Model_packet)
  | Fluid -> build (module Sim_workload.Model_fluid)
  | Hybrid _ -> build (module Sim_workload.Model_hybrid)

(* Set-up takes tens of microseconds at k=4 and tens of milliseconds
   at k=16: repeat it for [budget_s] (at least [min_reps] times) and
   return the median. *)
let min_reps = 5

let setup ?(budget_s = 0.1) cfg =
  let t_end = now () +. budget_s in
  let rec loop acc n =
    if n >= min_reps && now () >= t_end then List.rev acc
    else begin
      let t0 = now () in
      build_once cfg;
      loop ((now () -. t0) :: acc) (n + 1)
    end
  in
  median (loop [] 0)

type sim = {
  wall_s : float;
  top_heap_words : int;
  events : int;
  flows : int;  (** shorts and longs started *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  check : Check.t;
}

let sim_of ~wall_s ~(g0 : Gc.stat) ~(g1 : Gc.stat) (r : Scenario.result) =
  {
    wall_s;
    top_heap_words = g1.top_heap_words;
    events = r.events;
    flows = Array.length r.shorts + Array.length r.longs;
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    major_collections = g1.major_collections - g0.major_collections;
    check = Check.of_result r;
  }

let sim cfg =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = Scenario.run cfg in
  let wall_s = now () -. t0 in
  sim_of ~wall_s ~g0 ~g1:(Gc.quick_stat ()) r

(* ------------------------------------------------------------------ *)
(* Traced run *)

type span = { id : int; name : string; parent : int; t_start : float; t_end : float }

type traced = {
  run : sim;  (** the traced run's own wall, heap and check *)
  spans : span list;  (** in start order; the root has parent [-1] *)
  counters : (string * float) list;  (** layer counters, by metric name *)
  gc_time_s : float;
  gc_lost_events : int;
}

(* Host time the runtime spent in minor collections and major slices,
   read from this process's Runtime_events ring. The ring is polled
   at the end of every major cycle (a GC alarm), so the poll itself
   allocates nothing on the simulator's paths. *)
module Gc_phases = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    total_ns : int ref;
    lost : int ref;
  }

  let is_gc = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
    | _ -> false

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let start () =
    Runtime_events.start ();
    let total_ns = ref 0 and lost = ref 0 and depth = ref 0 and opened = ref 0 in
    let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
    let runtime_begin _ ts ph =
      if is_gc ph then begin
        if !depth = 0 then opened := ns ts;
        incr depth
      end
    in
    let runtime_end _ ts ph =
      if is_gc ph && !depth > 0 then begin
        decr depth;
        if !depth = 0 then total_ns := !total_ns + ns ts - !opened
      end
    in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ()
    in
    let t = { cursor = Runtime_events.create_cursor None; callbacks; total_ns; lost } in
    (* Discard what the ring already holds from before the run. *)
    poll t;
    total_ns := 0;
    lost := 0;
    t
end

let last_values (cap : Sim_obs.Capture.t) =
  let v = Array.make (Array.length cap.gauges) 0. in
  Array.iter (fun (_, i, x) -> v.(i) <- x) cap.samples;
  v

let gauge_sum cap ~component ~name =
  let v = last_values cap in
  let s = ref 0. in
  Array.iteri
    (fun i (m : Sim_obs.Metrics.meta) ->
      if m.component = component && m.name = name then s := !s +. v.(i))
    cap.gauges;
  !s

let ratio a b = if b = 0. then 0. else a /. b

let counters (r : Scenario.result) =
  let cap =
    match r.obs with
    | Some c -> c
    | None -> invalid_arg "Measure.counters: the traced run carries no capture"
  in
  let ledger = Option.value r.ledger ~default:[||] in
  let count p = Array.fold_left (fun n e -> if p e then n + 1 else n) 0 ledger in
  let flows = float_of_int (Array.length ledger) in
  let shorts = float_of_int (Array.length r.shorts) in
  let sum f = Array.fold_left (fun n x -> n + f x) 0 in
  let all = Array.append r.shorts r.longs in
  let g component name = gauge_sum cap ~component ~name in
  let promotions =
    float_of_int (count (fun e -> e.Sim_obs.Flow_ledger.e_promote_ns >= 0))
  in
  [
    ("engine.event_cells", g "scheduler" "event_cells");
    ("net.queue_drops", g "pktqueue" "drops");
    ("net.core_loss", Scenario.core_loss r);
    ("net.agg_loss", Scenario.agg_loss r);
    ("tcp.rtos", float_of_int (sum (fun f -> f.Scenario.rtos) all));
    ("tcp.fast_rtxs", float_of_int (sum (fun f -> f.Scenario.fast_rtxs) all));
    ("tcp.rto_flow_share", ratio (float_of_int (Scenario.shorts_with_rto r)) shorts);
    ( "mmptcp.switches",
      float_of_int (count (fun e -> e.Sim_obs.Flow_ledger.e_switch_ns >= 0)) );
    ("fluid.flushes", g "fluid" "alloc_flushes");
    ("fluid.waves", g "fluid" "alloc_waves");
    ("fluid.settles", g "fluid" "alloc_settles");
    ("fluid.heap_pops", g "fluid" "alloc_heap_pops");
    ("fluid.pops_per_flow", ratio (g "fluid" "alloc_heap_pops") flows);
    ("hybrid.promotions", promotions);
    ("hybrid.promoted_share", ratio promotions flows);
  ]

(* The traced configuration: the ledger on, and a probe whose single
   tick lands on the horizon, restricted to no connection so only the
   global gauges (scheduler, queues, fluid engine) register. A finer
   interval or per-connection gauges cost more than the run itself on
   fattree-hybrid. *)
let traced_config (cfg : Scenario.config) =
  {
    cfg with
    obs =
      {
        cfg.obs with
        Scenario.ledger = true;
        probe_interval = Some cfg.horizon;
        probe_conns = Some [];
      };
  }

let json_string s = Printf.sprintf "%S" s

let write_spans ~path spans =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"name\": %s, \"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}"
        (if i = 0 then "" else ",\n")
        s.id (json_string s.name) s.parent s.t_start s.t_end)
    spans;
  output_string oc "\n]\n";
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let traced ~out_dir ~label cfg =
  let cfg = traced_config cfg in
  let gc = Gc_phases.start () in
  let alarm = Gc.create_alarm (fun () -> Gc_phases.poll gc) in
  let spans = ref [] and next_id = ref 0 in
  let span ?(parent = 0) name f =
    let id = !next_id in
    incr next_id;
    let t_start = now () in
    let x = f () in
    spans := { id; name; parent; t_start; t_end = now () } :: !spans;
    x
  in
  let g0 = Gc.quick_stat () in
  let r, wall_s, g1, gc_ns, gc_lost =
    span ~parent:(-1) "workload" (fun () ->
        let t0 = now () in
        let r = span "run" (fun () -> Scenario.run cfg) in
        let wall_s = now () -. t0 in
        (* Heap and GC time of the run alone, as in the untraced child:
           the benchmark's own work below stays out of them. *)
        let g1 = Gc.quick_stat () in
        Gc.delete_alarm alarm;
        Gc_phases.poll gc;
        let gc_ns = !(gc.total_ns) and gc_lost = !(gc.lost) in
        span "summarise" (fun () ->
            let fcts = Scenario.short_fcts_ms r in
            if Array.length fcts > 0 then ignore (Sim_stats.Summary.of_array fcts);
            let goodput = Scenario.long_goodput_mbps r in
            if Array.length goodput > 0 then
              ignore (Sim_stats.Summary.of_array goodput));
        span "render" (fun () ->
            let dir = Filename.concat out_dir ("ledger-" ^ label) in
            mkdir_p dir;
            Sim_experiments.Ledger_sink.artifacts ~experiment:label
              [ (label, Option.value r.ledger ~default:[||]) ]
            |> List.iter (fun a ->
                   ignore (Sim_experiments.Sink.write_artifact ~dir a)));
        (* Last: the network it builds and drops would otherwise count
           in the traced heap. *)
        span "setup" (fun () -> build_once cfg);
        (r, wall_s, g1, gc_ns, gc_lost))
  in
  Runtime_events.free_cursor gc.cursor;
  (* The root span closes last but was opened first: start order. *)
  let spans = List.sort (fun a b -> compare a.id b.id) !spans in
  write_spans ~path:(Filename.concat out_dir ("spans-" ^ label ^ ".json")) spans;
  {
    run = sim_of ~wall_s ~g0 ~g1 r;
    spans;
    counters = counters r;
    gc_time_s = float_of_int gc_ns /. 1e9;
    gc_lost_events = gc_lost;
  }

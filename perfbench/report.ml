(* Turns the child records of one benchmark run into its verdict and
   metrics, and prints them: one line per metric with its unit, then
   the simulated outputs and checks, then the JSON result line. *)

type metric = { name : string; unit_ : string; value : float }

type t = {
  failures : string list;  (** empty when the run is correct *)
  attempted : int;  (** short flows that arrived, summed over runs *)
  failed : int;  (** of those, unfinished at the horizon *)
  metrics : metric list;
  host : metric list;  (** host figures, printed but not reported: see Reference *)
  check : Check.t;  (** the first run's simulated outputs *)
  truncated : int;  (** [Check.known_defect] flows, summed over inputs *)
  inputs : int;
}

let median = Measure.median

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6
let med f xs = median (List.map f xs)
let m name unit_ value = { name; unit_; value }

(* [groups]: the checks of each input's runs, which must agree. *)
let make ~groups ~metrics ~host =
  let checks = List.concat groups in
  {
    failures = List.concat_map Check.failures_all groups;
    attempted = List.fold_left (fun n c -> n + c.Check.arrived) 0 checks;
    failed = List.fold_left (fun n c -> n + c.Check.incomplete) 0 checks;
    metrics;
    host;
    check = List.hd checks;
    truncated = List.fold_left (fun n g -> n + (List.hd g).Check.bytes_truncated) 0 groups;
    inputs = List.length groups;
  }

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A host time measured next to a reference time, scaled to the
   reference's nominal speed (see Reference). *)
let scaled (x, ref_s) = x *. Reference.nominal_s /. ref_s

(* Untraced runs only, one list per input, each run paired with its
   reference time: the end-to-end metrics, each the mean over inputs
   of that input's median. Each input's runs are checked against each
   other. *)
let end_to_end ~setup_s (inputs : (Measure.sim * float) list list) =
  let per_input f = mean (List.map (med f) inputs) in
  make
    ~groups:(List.map (List.map (fun ((s : Measure.sim), _) -> s.check)) inputs)
    ~metrics:
      [
        m "wall_s" "s" (per_input (fun (s, r) -> scaled (s.Measure.wall_s, r)));
        m "setup_s" "s" (med scaled setup_s);
        m "peak_heap_mb" "MB" (per_input (fun (s, _) -> mb_of_words s.Measure.top_heap_words));
      ]
    ~host:[]

(* Untraced and traced runs of one input, each paired with its
   reference time: the per-layer metrics. Work counters and GC words
   come from the untraced runs, which are the program the end-to-end
   metrics time; the rest from the traced runs. Host times are medians
   over runs, and the overhead compares the two medians. *)
let per_layer (runs : (Measure.sim * float) list) (traced : (Measure.traced * float) list) =
  let sims = List.map fst runs and trs = List.map fst traced in
  let med_of f = med f sims in
  let wall = med (fun (s, r) -> scaled (s.Measure.wall_s, r)) runs in
  let tr_wall = med (fun ((t : Measure.traced), r) -> scaled (t.run.wall_s, r)) traced in
  let events = med_of (fun s -> float_of_int s.events) in
  let minor = med_of (fun s -> s.minor_words) in
  let heap_mb = med_of (fun s -> mb_of_words s.top_heap_words) in
  let tr_heap_mb = med (fun (t : Measure.traced) -> mb_of_words t.run.top_heap_words) trs in
  let flows = med_of (fun s -> float_of_int s.flows) in
  let span name =
    med
      (fun (t : Measure.traced) ->
        match List.find_opt (fun (s : Measure.span) -> s.name = name) t.spans with
        | Some s -> s.t_end -. s.t_start
        | None -> 0.)
      trs
  in
  (* Counters repeat exactly across runs of one input (the digest
     check below holds them to the same simulation). *)
  let tr = List.hd trs in
  let counter name = List.assoc name tr.counters in
  let count name = m name "count" (counter name) in
  let c = tr.run.check in
  make
    ~groups:
      [
        List.map (fun (t : Measure.traced) -> t.run.check) trs
        @ List.map (fun (s : Measure.sim) -> s.check) sims;
      ]
    ~metrics:
      [
        m "engine.events" "count" events;
        m "engine.ns_per_event" "ns" (Measure.ratio (wall *. 1e9) events);
        m "engine.event_cells" "count" (counter "engine.event_cells");
        count "net.queue_drops";
        m "net.core_loss" "ratio" (counter "net.core_loss");
        m "net.agg_loss" "ratio" (counter "net.agg_loss");
        count "tcp.rtos";
        count "tcp.fast_rtxs";
        m "tcp.rto_flow_share" "ratio" (counter "tcp.rto_flow_share");
        count "mmptcp.switches";
        count "fluid.flushes";
        count "fluid.waves";
        count "fluid.settles";
        count "fluid.heap_pops";
        m "fluid.pops_per_flow" "count/flow" (counter "fluid.pops_per_flow");
        count "hybrid.promotions";
        m "hybrid.promoted_share" "ratio" (counter "hybrid.promoted_share");
        m "workload.heap_bytes_per_flow" "B/flow" (Measure.ratio (heap_mb *. 1e6) flows);
        m "gc.minor_words" "words" minor;
        m "gc.words_per_event" "words/event" (Measure.ratio minor events);
        m "gc.promoted_words" "words" (med_of (fun s -> s.promoted_words));
        m "gc.major_collections" "count" (med_of (fun s -> float_of_int s.major_collections));
        m "gc.time_s" "s" (med (fun (t : Measure.traced) -> t.gc_time_s) trs);
        m "gc.lost_events" "count"
          (float_of_int (List.fold_left (fun n (t : Measure.traced) -> n + t.gc_lost_events) 0 trs));
        m "span.setup_s" "s" (span "setup");
        m "span.run_s" "s" (span "run");
        m "span.summarise_s" "s" (span "summarise");
        m "span.render_s" "s" (span "render");
        m "obs.overhead_s" "s" (tr_wall -. wall);
        m "obs.overhead_heap_mb" "MB" (tr_heap_mb -. heap_mb);
        m "sim.fct_p50_ms" "ms" c.fct_p50_ms;
        m "sim.fct_tail_ms" "ms" c.fct_tail_ms;
        m "check.bytes_truncated" "count" (float_of_int c.bytes_truncated);
      ]
    ~host:
      [
        m "host.wall_raw_s" "s" (med_of (fun s -> s.wall_s));
        m "host.speed" "ratio" (med (fun (_, r) -> Reference.nominal_s /. r) runs);
      ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json t =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failures = []) t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))

let print ~workload t =
  let line x = Printf.printf "%s  %-28s %18.9g %s\n" workload x.name x.value x.unit_ in
  List.iter line t.metrics;
  List.iter line t.host;
  let c = t.check in
  Printf.printf "%s  %-28s %18d short flows arrived\n" workload "operations" t.attempted;
  Printf.printf "%s  %-28s %18d incomplete at the horizon\n" workload "failed" t.failed;
  Printf.printf "%s  %-28s %18.9g ms\n" workload "sim.fct_p50_ms" c.fct_p50_ms;
  Printf.printf "%s  %-28s %18.9g ms (p%g of %d)\n" workload "sim.fct_tail_ms" c.fct_tail_ms
    c.fct_tail_pct (c.arrived - c.incomplete);
  Printf.printf "%s  %-28s %s\n" workload "sim.digest" c.digest;
  Printf.printf "%s  %-28s %18d over %d input%s, known deviation: %s\n" workload
    "check.bytes_truncated" t.truncated t.inputs
    (if t.inputs = 1 then "" else "s")
    Check.known_defect;
  List.iter (fun f -> Printf.printf "%s  FAILED: %s\n" workload f) t.failures;
  print_endline (json t)

module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng

(* The flow-mechanics types live in {!Flow_model}; re-exported here
   so experiment code keeps writing [Scenario.Tcp_proto] and
   [{ default_config with ... }]. *)
include Flow_model

type flow_result = {
  id : int;
  src : int;
  dst : int;
  flow_size : int;
  is_long : bool;
  start : Time.t;
  fct : Time.t option;
  rtos : int;
  fast_rtxs : int;
  bytes_received : int;
}

type result = {
  config : config;
  shorts : flow_result array;
  longs : flow_result array;
  net : net_stats;
  events : int;
  duration : Time.t;
  obs : Sim_obs.Capture.t option;
  ledger : Sim_obs.Flow_ledger.dump option;
}

let backend : model -> (module Flow_model.BACKEND) = function
  | Packet -> (module Model_packet)
  | Fluid -> (module Model_fluid)
  | Hybrid _ -> (module Model_hybrid)

let run (cfg : config) =
  (* The scheduler owns all per-simulation state (clock, event heap,
     and the Sim_ctx identifier counters), so a run is self-contained:
     same [cfg] in, same result out, regardless of what else runs in
     this process. *)
  let (module B : Flow_model.BACKEND) = backend cfg.model in
  let sched = Scheduler.create () in
  (* The probe must exist before the network: queue and engine gauges
     register at construction, and the registry is consulted only
     then. *)
  let probe =
    match cfg.obs.probe_interval with
    | Some interval ->
      let p =
        Sim_engine.Probe.create ?conns:cfg.obs.probe_conns sched ~interval
      in
      Sim_engine.Probe.start p;
      Some p
    | None -> None
  in
  (* The ledger is every flow's only record: the results below are
     read off its dump. *)
  let ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched) in
  Sim_obs.Flow_ledger.set_clock ledger ~clock_ns:(fun () ->
      Time.to_ns (Scheduler.now sched));
  let rng = Rng.create ~seed:cfg.seed in
  let net = B.build ~sched cfg in
  let topo = B.topology net in
  let n = Sim_net.Topology.host_count topo in
  let tm = Traffic_matrix.create ~rng:(Rng.split rng) ~hosts:n cfg.tm in
  (* Role assignment: shuffle, take the first fraction as long hosts.
     Incast matrices constrain short senders to the fan-in set. *)
  let ids = Array.init n (fun i -> i) in
  Rng.shuffle rng ids;
  let long_count =
    int_of_float (Float.round (cfg.long_fraction *. float_of_int n))
  in
  let long_hosts = Array.sub ids 0 long_count in
  let short_hosts =
    match Traffic_matrix.incast_senders tm with
    | [] -> Array.sub ids long_count (n - long_count)
    | senders ->
      Array.of_list
        (List.filter (fun s -> not (Array.exists (( = ) s) long_hosts)) senders)
  in
  (* One flow arrival. The destination is drawn from the traffic
     matrix at fire time, so it reflects matrix state in arrival order.
     The arrival is the model-agnostic ledger anchor: it knows the
     flow's full size (the hybrid model's packet stage only sees its
     handoff slice) and runs before any transport event can fire. *)
  let start src ~size ~long =
    let dst = Traffic_matrix.dest tm ~src in
    let conn = B.start_flow cfg net ~rng ~src_id:src ~dst_id:dst ~size in
    Sim_obs.Flow_ledger.on_start ledger ~conn ~src ~dst ~size ~long
  in
  (* Long background flows start near t=0 with a little jitter so their
     slow starts do not synchronise. The payload is the host. *)
  let longs =
    Scheduler.Event.pool sched ~fire:(fun h ->
        start h ~size:cfg.long_size ~long:true)
  in
  Array.iter
    (fun h ->
      let jitter = Time.of_us (Rng.float rng 10_000.) in
      Scheduler.Event.schedule_after longs jitter h)
    long_hosts;
  (* Short flows: a Poisson process per short host; the global flow
     budget is spread evenly across hosts. Every gap is drawn here,
     host by host, into [arrival_ns]: short host [k]'s arrivals are
     slots [next.(k)] to [stop.(k) - 1]. *)
  let num_short = Array.length short_hosts in
  if cfg.short_flows > 0 && num_short = 0 then
    invalid_arg "Scenario.run: no short hosts available";
  let arrival_ns = Array.make cfg.short_flows 0 in
  let next = Array.make num_short 0 and stop = Array.make num_short 0 in
  if cfg.short_flows > 0 then begin
    let base = cfg.short_flows / num_short in
    let extra = cfg.short_flows mod num_short in
    let j = ref 0 in
    for k = 0 to num_short - 1 do
      next.(k) <- !j;
      let t = ref Time.zero in
      for _ = 1 to base + if k < extra then 1 else 0 do
        let gap = Rng.exponential rng ~mean:(1. /. cfg.short_rate) in
        t := Time.add !t (Time.of_sec gap);
        arrival_ns.(!j) <- Time.to_ns !t;
        incr j
      done;
      stop.(k) <- !j
    done
  end;
  (* Arrival [j] takes seq [first_seq + j]: the seq it would take if
     every arrival were armed now, host by host. Only each host's next
     arrival is pending (the payload is [k]). Firing it arms the one
     after, whose key is not behind any key that has fired, so every
     arrival fires exactly where it would have among the others. *)
  let first_seq = Scheduler.reserve sched cfg.short_flows in
  let rec arm_next k =
    let j = next.(k) in
    if j < stop.(k) then begin
      next.(k) <- j + 1;
      Scheduler.Event.schedule_at_reserved (Lazy.force shorts)
        (Time.of_ns arrival_ns.(j)) ~seq:(first_seq + j) k
    end
  and shorts =
    lazy
      (Scheduler.Event.pool sched ~fire:(fun k ->
           arm_next k;
           start short_hosts.(k) ~size:cfg.short_size ~long:false))
  in
  for k = 0 to num_short - 1 do
    arm_next k
  done;
  Scheduler.run ~until:cfg.horizon sched;
  (* Lifetime invariant (dev profile): a connection is closed only once
     it can never act again, so no packet may reach one. A packet for
     an unbound connection id means one was closed too early. The
     fluid model sends no packets and passes trivially. *)
  if Sim_engine.Sanitizer_mode.on then
    Array.iteri
      (fun i h ->
        let n = Sim_net.Host.unmatched h in
        if n > 0 then
          failwith
            (Printf.sprintf
               "Scenario.run: host %d received %d packet(s) for a closed \
                connection under --model %s"
               i n (model_name cfg.model)))
      topo.Sim_net.Topology.hosts;
  (* A --probe CONN list that matched nothing under this model would
     render perfectly empty per-connection artifacts; fail loudly with
     what the model actually built instead. *)
  (match (probe, cfg.obs.probe_conns) with
  | Some _, Some (_ :: _ as want) ->
    let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched) in
    if not (Sim_obs.Metrics.conn_filter_matched m) then
      failwith
        (Printf.sprintf
           "--probe %s matched no connection under --model %s; components \
            this model registers: %s"
           (String.concat "," (List.map string_of_int want))
           (model_name cfg.model)
           (match Sim_obs.Metrics.components m with
           | [] -> "(none)"
           | cs -> String.concat ", " cs))
  | _ -> ());
  let net_stats = B.finish net in
  let dump = Sim_obs.Flow_ledger.dump ledger in
  (* Conservation invariant (dev profile): no flow delivers more than
     its size, and a completed flow delivers exactly its size. *)
  if Sim_engine.Sanitizer_mode.on then
    Array.iter
      (fun (e : Sim_obs.Flow_ledger.entry) ->
        if
          e.e_bytes < 0 || e.e_bytes > e.e_size
          || (e.e_complete_ns >= 0 && e.e_bytes <> e.e_size)
        then
          failwith
            (Printf.sprintf
               "Scenario.run: conn %d delivered %d of %d bytes (%s) under \
                --model %s"
               e.e_conn e.e_bytes e.e_size
               (if e.e_complete_ns >= 0 then "completed" else "unfinished")
               (model_name cfg.model)))
      dump;
  (* Dump entries are in arrival order, which is start order, so the
     ids number each class by start time. *)
  let flows long =
    Array.to_list dump
    |> List.filter (fun (e : Sim_obs.Flow_ledger.entry) -> e.e_long = long)
    |> List.mapi (fun id (e : Sim_obs.Flow_ledger.entry) ->
           {
             id;
             src = e.e_src;
             dst = e.e_dst;
             flow_size = e.e_size;
             is_long = e.e_long;
             start = Time.of_ns e.e_start_ns;
             fct = Option.map Time.of_ns (Sim_obs.Flow_ledger.fct_ns e);
             rtos = e.e_rtos;
             fast_rtxs = e.e_fast_rtxs;
             bytes_received = e.e_bytes;
           })
    |> Array.of_list
  in
  {
    config = cfg;
    shorts = flows false;
    longs = flows true;
    net = net_stats;
    events = Scheduler.events_processed sched;
    duration = Scheduler.now sched;
    obs = Option.map Sim_engine.Probe.capture probe;
    ledger = (if cfg.obs.ledger then Some dump else None);
  }

let short_fcts_ms r =
  Array.to_list r.shorts
  |> List.filter_map (fun f -> Option.map Time.to_ms f.fct)
  |> Array.of_list

let incomplete_shorts r =
  Array.fold_left (fun acc f -> if f.fct = None then acc + 1 else acc) 0 r.shorts

let shorts_with_rto r =
  Array.fold_left (fun acc f -> if f.rtos > 0 then acc + 1 else acc) 0 r.shorts

let long_goodput_mbps r =
  Array.map
    (fun f ->
      let active =
        match f.fct with
        | Some t -> Time.to_sec t
        | None -> Time.to_sec (Time.diff r.duration f.start)
      in
      if active <= 0. then 0.
      else float_of_int f.bytes_received *. 8. /. active /. 1e6)
    r.longs

let core_loss r = r.net.ns_core_loss
let agg_loss r = r.net.ns_agg_loss
let core_utilisation r = r.net.ns_core_utilisation

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng

(* The flow-mechanics types live in {!Flow_model}; re-exported here by
   equation so experiment code keeps writing [Scenario.Tcp_proto] and
   [{ default_config with ... }] unchanged. *)

type model = Flow_model.kind =
  | Packet
  | Fluid
  | Hybrid of { handoff_bytes : int }

type protocol = Flow_model.protocol =
  | Tcp_proto
  | Dctcp_proto
  | Mptcp_proto of { subflows : int; coupled : bool }
  | Mmptcp_proto of Mmptcp.Strategy.t

type topology_kind = Flow_model.topology_kind =
  | Fattree_topo of Sim_net.Fattree.params
  | Multihomed_topo of Sim_net.Multihomed.params
  | Vl2_topo of Sim_net.Vl2.params
  | Dumbbell_topo of { pairs : int; bottleneck : Sim_net.Topology.link_spec }

type obs_cfg = Flow_model.obs_cfg = {
  probe_interval : Time.t option;
  probe_conns : int list option;
  ledger : bool;
  pin : unit;
}

let default_obs = Flow_model.default_obs

type config = Flow_model.config = {
  model : model;
  topo : topology_kind;
  protocol : protocol;
  seed : int;
  tm : Traffic_matrix.kind;
  long_fraction : float;
  long_size : int;
  short_size : int;
  short_flows : int;
  short_rate : float;
  horizon : Time.t;
  params : Sim_tcp.Tcp_params.t;
  obs : obs_cfg;
}

let paper_link_spec = Flow_model.paper_link_spec
let paper_fattree = Flow_model.paper_fattree
let default_config = Flow_model.default_config
let protocol_name = Flow_model.protocol_name
let model_name = Flow_model.kind_to_string

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

type net_stats = Flow_model.net_stats = {
  ns_core_loss : float;
  ns_agg_loss : float;
  ns_core_utilisation : float;
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

(* Payload of one pooled arrival event: which host fires, how much it
   sends. The destination is drawn from the traffic matrix at fire
   time (so it reflects matrix state in arrival order), exactly as the
   per-event closures this pool replaced did. *)
type arrival = { ar_host : int; ar_size : int; ar_long : bool }

let run ?(progress = fun _ -> ()) (cfg : config) =
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
  let ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched) in
  if cfg.obs.ledger then
    Sim_obs.Flow_ledger.enable ledger ~clock_ns:(fun () ->
        Time.to_ns (Scheduler.now sched));
  let rng = Rng.create ~seed:cfg.seed in
  let net = B.build ~sched cfg in
  let n = B.host_count net in
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
  let lives = ref [] in
  let note l = lives := l :: !lives in
  let arrivals =
    Scheduler.Event.pool sched ~fire:(fun a ->
        let dst = Traffic_matrix.dest tm ~src:a.ar_host in
        let l =
          B.start_flow cfg net ~rng ~src_id:a.ar_host ~dst_id:dst
            ~size:a.ar_size ~is_long:a.ar_long
        in
        (* The arrival is the model-agnostic ledger anchor: it knows
           the flow's full size (the hybrid model's packet stage only
           sees its handoff slice) and runs before any transport event
           can fire. *)
        Sim_obs.Flow_ledger.on_start ledger ~conn:l.Flow_model.l_conn
          ~src:l.Flow_model.l_src ~dst:l.Flow_model.l_dst
          ~size:l.Flow_model.l_size ~long:l.Flow_model.l_long;
        note l)
  in
  (* Long background flows start near t=0 with a little jitter so their
     slow starts do not synchronise. *)
  Array.iter
    (fun h ->
      let jitter = Time.of_us (Rng.float rng 10_000.) in
      ignore
        (Scheduler.Event.schedule_after arrivals jitter
           { ar_host = h; ar_size = cfg.long_size; ar_long = true }))
    long_hosts;
  (* Short flows: Poisson process per short host; the global flow
     budget is spread evenly across hosts. *)
  let num_short = Array.length short_hosts in
  if cfg.short_flows > 0 && num_short = 0 then
    invalid_arg "Scenario.run: no short hosts available";
  if cfg.short_flows > 0 then begin
    let base = cfg.short_flows / num_short in
    let extra = cfg.short_flows mod num_short in
    Array.iteri
      (fun idx h ->
        let flows = base + (if idx < extra then 1 else 0) in
        let t = ref Time.zero in
        for _ = 1 to flows do
          let gap = Rng.exponential rng ~mean:(1. /. cfg.short_rate) in
          t := Time.add !t (Time.of_sec gap);
          ignore
            (Scheduler.Event.schedule_at arrivals !t
               { ar_host = h; ar_size = cfg.short_size; ar_long = false })
        done)
      short_hosts
  end;
  progress
    (Printf.sprintf "scenario: %s on %s, %d hosts (%d long, %d short senders)"
       (protocol_name cfg.protocol) (B.name net) n long_count num_short);
  Scheduler.run ~until:cfg.horizon sched;
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
  let collect (l : Flow_model.live) =
    (* Finalize the ledger's byte counters from the live handle — the
       transports count bytes in model-specific places; the handle is
       the one uniform view. *)
    Sim_obs.Flow_ledger.note_bytes ledger ~conn:l.Flow_model.l_conn
      (l.Flow_model.l_bytes ());
    {
      id = 0;
      src = l.Flow_model.l_src;
      dst = l.l_dst;
      flow_size = l.l_size;
      is_long = l.l_long;
      start = l.l_start;
      fct = l.l_fct ();
      rtos = l.l_rtos ();
      fast_rtxs = l.l_frtx ();
      bytes_received = l.l_bytes ();
    }
  in
  let all = List.rev_map collect !lives in
  let by_start a b = Time.compare a.start b.start in
  let shorts =
    List.filter (fun f -> not f.is_long) all |> List.sort by_start
    |> List.mapi (fun i f -> { f with id = i })
    |> Array.of_list
  in
  let longs =
    List.filter (fun f -> f.is_long) all |> List.sort by_start
    |> List.mapi (fun i f -> { f with id = i })
    |> Array.of_list
  in
  {
    config = cfg;
    shorts;
    longs;
    net = B.net_stats net;
    events = Scheduler.events_processed sched;
    duration = Scheduler.now sched;
    obs = Option.map Sim_engine.Probe.capture probe;
    ledger =
      (if cfg.obs.ledger then Some (Sim_obs.Flow_ledger.dump ledger) else None);
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

type t = {
  sched : Scheduler.t;
  series : Sim_obs.Series.t;
  interval : Sim_time.t;
  timer : Scheduler.Timer.t;
  mutable armed : bool;
  mutable ticks : int;
  mutable last_ns : int;  (* instant of the last sample, -1 before one *)
}

let sample t =
  let now_ns = Sim_time.to_ns (Scheduler.now t.sched) in
  Sim_obs.Series.sample t.series ~now_ns;
  t.last_ns <- now_ns

let tick t =
  sample t;
  t.ticks <- t.ticks + 1;
  if t.armed then Scheduler.Timer.schedule_after t.timer t.interval

let sample_end t =
  if t.last_ns <> Sim_time.to_ns (Scheduler.now t.sched) then sample t

let create ?conns sched ~interval =
  if Sim_time.to_ns interval <= 0 then
    invalid_arg "Probe.create: interval must be positive";
  let m = Sim_ctx.metrics (Scheduler.ctx sched) in
  Sim_obs.Metrics.enable m ?conns
    ~clock_ns:(fun () -> Sim_time.to_ns (Scheduler.now sched))
    ();
  Sim_obs.Metrics.register m ~component:"scheduler" ~id:"sched"
    ~name:"pending_events" ~units:"events" (fun () ->
      float_of_int (Scheduler.pending_events sched));
  Sim_obs.Metrics.register m ~component:"scheduler" ~id:"sched"
    ~name:"events_processed" ~units:"events" (fun () ->
      float_of_int (Scheduler.events_processed sched));
  Sim_obs.Metrics.register m ~component:"scheduler" ~id:"sched"
    ~name:"event_cells" ~units:"cells" (fun () ->
      float_of_int (Scheduler.event_cells_allocated sched));
  Sim_obs.Metrics.register m ~component:"scheduler" ~id:"sched"
    ~name:"event_cells_free" ~units:"cells" (fun () ->
      float_of_int (Scheduler.event_cells_free sched));
  (* The timer's state is [t] and [t] needs the timer: tie the knot
     through a forward cell rather than a recursive value, keeping the
     record free of option fields on the tick path. *)
  let cell = ref None in
  let tick_cell cell = match !cell with Some t -> tick t | None -> () in
  let timer = Scheduler.Timer.create sched tick_cell cell in
  let t =
    { sched; series = Sim_obs.Series.create m; interval; timer; armed = false;
      ticks = 0; last_ns = -1 }
  in
  cell := Some t;
  t

let start t =
  if not t.armed then begin
    t.armed <- true;
    Scheduler.Timer.schedule_after t.timer t.interval
  end

let stop t =
  t.armed <- false;
  Scheduler.Timer.cancel t.timer

let ticks t = t.ticks

let capture t =
  stop t;
  Sim_obs.Capture.of_series t.series

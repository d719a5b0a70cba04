(* Event-driven fluid transport engine.

   A connection is a small timer-driven state machine over the rate
   allocator instead of a packet exchange:

     Handshake --1 RTT--> Running --last byte sent--> Draining
                                        --RTT/2 tail--> Finished

   While Running, the connection owns one allocator flow per leg
   (subflow); the effective send rate is the aggregate allocation
   capped by a doubling slow-start window model (IW * mss / RTT,
   doubling each RTT until it reaches the allocated share — the
   regime that dominates short-flow FCT). Remaining bytes are
   integrated in closed form between rate changes, so the engine
   costs O(log(size)) timer events per flow: handshake, a few
   slow-start doublings, optional phase switch, completion, drain.

   Multipath: a connection carries several legs with allocator
   weights from {!Sim_tcp.Cong.Lia.fluid_weights} (coupled) or unit
   weights (uncoupled). MMPTCP's two-phase shape: the scatter legs
   are swapped for the MPTCP legs once [sw_after_bytes] are done
   ([Congestion_event] has no fluid analogue — congestion is never a
   discrete event here — and behaves as [Never]).

   Everything hangs off [t]; per-run timers only (D001/D002
   clean by construction). *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler

type leg_spec = { path : int array; weight : float; rtt_s : float }

type switch_spec = { sw_after_bytes : int; sw_legs : leg_spec array }

type state = Handshake | Running | Draining | Finished

(* All-float, so stored flat and mutated in place: in the mixed
   [conn] record below every store to one of these would box a fresh
   float, and they change on every allocator rate callback. *)
type cstate = {
  mutable cs_remaining : float;  (* bytes *)
  mutable cs_done : float;  (* bytes, includes the [resume_from] offset *)
  mutable cs_rate : float;  (* effective send rate, bytes/s *)
  mutable cs_alloc_bps : float;  (* aggregate allocation, bits/s *)
  mutable cs_last_t : float;  (* seconds of last integration *)
  mutable cs_ss_cap : float;  (* slow-start rate cap, bytes/s *)
  mutable cs_next_double : float;  (* absolute s; infinity when done *)
}

type conn = {
  c_id : int;
  c_t : t;
  c_size : int;  (* bytes this stage transfers *)
  c_rtt : float;  (* representative RTT: min over initial legs, s *)
  c_on_complete : conn -> unit;
  c_started : Time.t;
  mutable c_state : state;
  mutable c_leg_specs : leg_spec array;  (* pending until Running *)
  mutable c_legs : conn Alloc.flow array;
  c_st : cstate;
  mutable c_switch : switch_spec option;
  mutable c_timer : Scheduler.Timer.t option;
  mutable c_completed : Time.t option;
}

and t = {
  sched : Scheduler.t;
  alloc : conn Alloc.t;
  metrics : Sim_obs.Metrics.t;  (* per-sim registry; emits are one branch when off *)
  ledger : Sim_obs.Flow_ledger.t;  (* per-sim flow ledger; same discipline *)
  mss : int;
  iw : int;
  mutable flush_timer : Scheduler.Timer.t option;
  mutable active : int;
  mutable completed : int;
  mutable switched : int;
}

let byte_tol = 1.0

let now_s t = Time.to_sec (Scheduler.now t.sched)

let aggregate_bps c =
  let legs = c.c_legs in
  let acc = ref 0. in
  for i = 0 to Array.length legs - 1 do
    acc := !acc +. Alloc.rate legs.(i)
  done;
  !acc

let effective_rate st = Float.min (st.cs_alloc_bps /. 8.) st.cs_ss_cap

(* Bytes a Running conn has sent between [cs_last_t] and [now]. *)
let[@inline] sent_since st ~now =
  Float.min (st.cs_rate *. (now -. st.cs_last_t)) st.cs_remaining

let integrate c ~now =
  let st = c.c_st in
  if now > st.cs_last_t then begin
    (match c.c_state with
    | Running ->
      let sent = sent_since st ~now in
      st.cs_remaining <- st.cs_remaining -. sent;
      st.cs_done <- st.cs_done +. sent
    | Handshake | Draining | Finished -> ());
    st.cs_last_t <- now
  end

(* The bytes [integrate] would leave at the current time, without
   writing them: a gauge that integrated would split the float sum at
   every sample and move the results. *)
let remaining_now c =
  let st = c.c_st in
  let now = now_s c.c_t in
  match c.c_state with
  | Running when now > st.cs_last_t -> st.cs_remaining -. sent_since st ~now
  | Handshake | Running | Draining | Finished -> st.cs_remaining

let the_timer c = match c.c_timer with Some tm -> tm | None -> assert false

(* Rate-rebalance quantum, seconds of virtual time. *)
let flush_interval = 2e-3

(* Global rebalances are quantised: mutations mark the allocator
   dirty and this timer drains it every [flush_interval] of virtual
   time, so a burst of arrivals/departures pays for one ripple pass
   instead of one per event. A starting connection still gets an
   accurate initial rate from the local [Alloc.settle] pass; the
   quantum only delays redistribution among the incumbents, an error
   below the one-RTT adaptation lag the packet model has anyway. *)
let request_flush t =
  let tm = match t.flush_timer with Some tm -> tm | None -> assert false in
  if not (Scheduler.Timer.is_pending tm) then
    Scheduler.Timer.schedule_after tm (Time.of_sec flush_interval)

let on_flush_timer t =
  let active = Sim_obs.Metrics.active t.metrics in
  let dirty = if active then Alloc.pending_dirty t.alloc else 0 in
  Alloc.flush t.alloc ~now:(now_s t);
  if dirty > 0 then
    Sim_obs.Metrics.emit t.metrics ~kind:"fluid_rebalance"
      ~info:
        [
          ("dirty", string_of_int dirty);
          ("carried", string_of_int (Alloc.pending_dirty t.alloc));
        ]
      ();
  if Alloc.pending_dirty t.alloc > 0 then request_flush t

(* Arm the connection's timer at an absolute float-second deadline
   (clamped to now; +1 ns absorbs of_sec truncation so the fire lands
   at-or-after the analytic instant). *)
let arm_at c time_s =
  let target =
    Time.max
      (Time.add (Time.of_sec time_s) (Time.of_ns 1))
      (Scheduler.now c.c_t.sched)
  in
  Scheduler.Timer.schedule_at (the_timer c) target

(* Bytes done (counting [resume_from]) at which the pending switch
   fires; infinity once switched or without one. *)
let switch_after c =
  match c.c_switch with
  | Some sw -> float_of_int sw.sw_after_bytes
  | None -> infinity

let re_arm c ~now =
  match c.c_state with
  | Running ->
    let st = c.c_st in
    let dl = ref infinity in
    if st.cs_rate > 0. then
      dl := Float.min !dl (now +. (st.cs_remaining /. st.cs_rate));
    dl := Float.min !dl st.cs_next_double;
    let v = switch_after c in
    if st.cs_rate > 0. && st.cs_done < v then
      dl := Float.min !dl (now +. ((v -. st.cs_done) /. st.cs_rate));
    if !dl < infinity then arm_at c !dl
    else Scheduler.Timer.cancel (the_timer c)
  | Handshake | Draining | Finished -> ()

let refresh_rate c ~now =
  integrate c ~now;
  c.c_st.cs_alloc_bps <- aggregate_bps c;
  c.c_st.cs_rate <- effective_rate c.c_st

let add_legs c specs =
  let t = c.c_t in
  c.c_legs <-
    Array.map
      (fun s ->
        Alloc.add t.alloc ~owner:c.c_id ~weight:s.weight ~path:s.path ~data:c)
      specs

let remove_legs c ~now =
  let t = c.c_t in
  Array.iter (fun f -> Alloc.remove t.alloc ~now f) c.c_legs;
  c.c_legs <- [||]

let emit_switch c =
  let t = c.c_t in
  Sim_obs.Metrics.emit
    (Sim_engine.Sim_ctx.metrics (Scheduler.ctx t.sched))
    ~kind:"phase_switch" ~conn:c.c_id
    ~info:
      [
        ("to", "multipath");
        ("model", "fluid");
        ("subflows", string_of_int (Array.length c.c_legs));
      ]
    ()

let do_switch c ~now =
  match c.c_switch with
  | None -> ()
  | Some { sw_legs; _ } ->
    c.c_switch <- None;
    c.c_t.switched <- c.c_t.switched + 1;
    Sim_obs.Flow_ledger.on_phase_switch c.c_t.ledger ~conn:c.c_id;
    remove_legs c ~now;
    c.c_leg_specs <- sw_legs;
    add_legs c sw_legs;
    emit_switch c;
    Alloc.settle c.c_t.alloc ~now c.c_legs;
    request_flush c.c_t;
    refresh_rate c ~now

let complete c =
  let t = c.c_t in
  c.c_state <- Finished;
  c.c_completed <- Some (Scheduler.now t.sched);
  Scheduler.Timer.cancel (the_timer c);
  t.active <- t.active - 1;
  t.completed <- t.completed + 1;
  Sim_obs.Flow_ledger.on_complete t.ledger ~conn:c.c_id;
  c.c_on_complete c

let enter_drain c ~now =
  remove_legs c ~now;
  c.c_state <- Draining;
  c.c_st.cs_rate <- 0.;
  (* The freed capacity reaches the survivors at the next quantum. *)
  request_flush c.c_t;
  (* Tail: the last byte is in flight for half an RTT. *)
  arm_at c (now +. (c.c_rtt /. 2.))

let step c ~now =
  integrate c ~now;
  if c.c_st.cs_remaining <= byte_tol then enter_drain c ~now
  else begin
    if c.c_st.cs_done +. 0.5 >= switch_after c then do_switch c ~now;
    if c.c_state = Running then begin
      let st = c.c_st in
      while now +. 1e-12 >= st.cs_next_double do
        st.cs_ss_cap <- st.cs_ss_cap *. 2.;
        if st.cs_ss_cap >= st.cs_alloc_bps /. 8. then begin
          st.cs_ss_cap <- infinity;
          st.cs_next_double <- infinity
        end
        else st.cs_next_double <- st.cs_next_double +. c.c_rtt
      done;
      st.cs_rate <- effective_rate st;
      re_arm c ~now
    end
  end

(* A fresh connection leaves its handshake in slow start; a resumed
   one is already open and sends at its full allocated rate. *)
let go_running c ~resumed =
  let t = c.c_t in
  let now = now_s t in
  c.c_state <- Running;
  c.c_st.cs_last_t <- now;
  Sim_obs.Flow_ledger.on_handshake t.ledger ~conn:c.c_id;
  add_legs c c.c_leg_specs;
  let st = c.c_st in
  (if not resumed then begin
     st.cs_ss_cap <- float_of_int (t.iw * t.mss) /. c.c_rtt;
     st.cs_next_double <- now +. c.c_rtt
   end
   else begin
     st.cs_ss_cap <- infinity;
     st.cs_next_double <- infinity
   end);
  Alloc.settle t.alloc ~now c.c_legs;
  (* The info list would allocate before [emit]'s own guard ran. *)
  if Sim_obs.Metrics.active t.metrics then
    Sim_obs.Metrics.emit t.metrics ~kind:"fluid_settle" ~conn:c.c_id
      ~info:[ ("legs", string_of_int (Array.length c.c_legs)) ]
      ();
  request_flush t;
  refresh_rate c ~now;
  step c ~now

let on_timer c =
  let now = now_s c.c_t in
  match c.c_state with
  | Handshake -> go_running c ~resumed:false
  | Running ->
    refresh_rate c ~now;
    step c ~now
  | Draining -> complete c
  | Finished -> ()

(* Allocator rate-change callback, once per connection per allocator
   pass however many of its legs changed: re-integrate at the old
   rate, then adopt the new aggregate and move the deadlines. *)
let on_leg_rate flow =
  let c = Alloc.data flow in
  match c.c_state with
  | Running ->
    let now = now_s c.c_t in
    refresh_rate c ~now;
    re_arm c ~now
  | Handshake | Draining | Finished -> ()

let make ~sched ~cap_bps ?(params = Sim_tcp.Tcp_params.default) () =
  let t =
    {
      sched;
      (* One relaxation wave per quantum: under churn the ripple
         re-dirties the population anyway, so extra waves per flush
         redo the same work; convergence continues next quantum. *)
      alloc = Alloc.create ~caps:cap_bps ~on_rate:on_leg_rate ();
      metrics = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched);
      ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched);
      mss = params.Sim_tcp.Tcp_params.mss;
      iw = params.Sim_tcp.Tcp_params.initial_window;
      flush_timer = None;
      active = 0;
      completed = 0;
      switched = 0;
    }
  in
  t.flush_timer <- Some (Scheduler.Timer.create sched on_flush_timer t);
  let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched) in
  (if Sim_obs.Metrics.active m then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"fluid" ~id:"engine" ~name ~units
         read
     in
     reg "active_conns" "conns" (fun () -> float_of_int t.active);
     reg "conns_completed" "conns" (fun () -> float_of_int t.completed);
     reg "phase_switches" "conns" (fun () -> float_of_int t.switched);
     reg "rebalance_pending" "flows" (fun () ->
         float_of_int (Alloc.pending_dirty t.alloc));
     (* Allocator work counters: how hard the incremental max-min
        machinery is running (see Alloc's self-profiling section). *)
     reg "alloc_live_flows" "flows" (fun () ->
         float_of_int (Alloc.live_flows t.alloc));
     reg "alloc_flushes" "flushes" (fun () ->
         float_of_int (Alloc.flushes_run t.alloc));
     reg "alloc_waves" "waves" (fun () ->
         float_of_int (Alloc.waves_run t.alloc));
     reg "alloc_settles" "settles" (fun () ->
         float_of_int (Alloc.settles_run t.alloc));
     reg "alloc_heap_pops" "pops" (fun () ->
         float_of_int (Alloc.heap_pops t.alloc))
   end);
  t

let start t ?resume_from ?switch ~legs ~size ~on_complete () =
  if Array.length legs = 0 then invalid_arg "Engine.start: no legs";
  let rtt =
    Array.fold_left (fun acc s -> Float.min acc s.rtt_s) infinity legs
  in
  if not (rtt > 0. && rtt < 1e3) then
    invalid_arg "Engine.start: leg rtt out of range";
  let conn_id = Sim_tcp.Conn_id.fresh (Scheduler.ctx t.sched) in
  let c =
    {
      c_id = conn_id;
      c_t = t;
      c_size = size;
      c_rtt = rtt;
      c_on_complete = on_complete;
      c_started = Scheduler.now t.sched;
      c_state = Handshake;
      c_leg_specs = legs;
      c_legs = [||];
      c_st =
        {
          cs_remaining = float_of_int size;
          cs_done = float_of_int (Option.value resume_from ~default:0);
          cs_rate = 0.;
          cs_alloc_bps = 0.;
          cs_last_t = now_s t;
          cs_ss_cap = infinity;
          cs_next_double = infinity;
        };
      c_switch = switch;
      c_timer = None;
      c_completed = None;
    }
  in
  c.c_timer <- Some (Scheduler.Timer.create t.sched on_timer c);
  t.active <- t.active + 1;
  (let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx t.sched) in
   if Sim_obs.Metrics.want_conn m conn_id then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"fluid"
         ~id:(Printf.sprintf "c%d" conn_id)
         ~name ~units read
     in
     reg "rate_mbps" "Mb/s" (fun () -> c.c_st.cs_rate *. 8. /. 1e6);
     reg "remaining_bytes" "bytes" (fun () -> remaining_now c);
     reg "legs" "legs" (fun () -> float_of_int (Array.length c.c_legs))
   end);
  (* Legs join the allocator only at [go_running]; registering them
     during the handshake would let it consume bandwidth. *)
  (match resume_from with
  | None -> arm_at c (now_s t +. rtt)
  | Some _ -> go_running c ~resumed:true);
  c

let flush t = Alloc.flush t.alloc ~now:(now_s t)
let set_link_avail t ~link bps = Alloc.set_avail t.alloc ~link bps
let link_alloc_bps t ~link = Alloc.link_alloc t.alloc ~link
let finalize t = Alloc.finalize t.alloc ~now:(now_s t)
let link_utilisation t ~link = Alloc.link_utilisation t.alloc ~link ~now:(now_s t)

let conn_id c = c.c_id
let conn_is_complete c = c.c_state = Finished

let conn_fct c =
  match c.c_completed with
  | None -> None
  | Some at -> Some (Time.diff at c.c_started)

(* Completion ends the transfer when at most [byte_tol] is left, so a
   finished stage can carry a sub-byte float residue that truncation
   would report as one byte missing. A running conn is integrated only
   at rate events, so it is first brought forward to now. *)
let conn_bytes c =
  match c.c_state with
  | Finished -> c.c_size
  | Handshake | Running | Draining ->
    integrate c ~now:(now_s c.c_t);
    int_of_float (Float.max 0. (float_of_int c.c_size -. c.c_st.cs_remaining))

let active t = t.active

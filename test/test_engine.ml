(* Unit and property tests for the discrete-event engine. *)

module Time = Sim_engine.Sim_time
module Event_heap = Sim_engine.Event_heap
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sim_time *)

let test_time_constructors () =
  check_int "1us in ns" 1000 (Time.to_ns (Time.of_us 1.));
  check_int "1ms in ns" 1_000_000 (Time.to_ns (Time.of_ms 1.));
  check_int "1s in ns" 1_000_000_000 (Time.to_ns (Time.of_sec 1.));
  Alcotest.(check (float 1e-9)) "round trip sec" 2.5 (Time.to_sec (Time.of_sec 2.5))

let test_time_arithmetic () =
  let a = Time.of_ms 5. and b = Time.of_ms 3. in
  Alcotest.(check (float 1e-9)) "add" 8. (Time.to_ms (Time.add a b));
  Alcotest.(check (float 1e-9)) "diff" 2. (Time.to_ms (Time.diff a b));
  check_bool "lt" true Time.(b < a);
  check_bool "le refl" true Time.(a <= a);
  Alcotest.check_raises "negative diff" (Invalid_argument "Sim_time.diff: negative result")
    (fun () -> ignore (Time.diff b a))

let test_time_scale () =
  Alcotest.(check (float 1e-9)) "double" 10.
    (Time.to_ms (Time.scale (Time.of_ms 5.) 2.));
  Alcotest.check_raises "negative scale"
    (Invalid_argument "Sim_time.scale: negative factor") (fun () ->
      ignore (Time.scale (Time.of_ms 1.) (-1.)))

let test_time_negative_rejected () =
  Alcotest.check_raises "of_ns negative" (Invalid_argument "Sim_time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.of_ns 500));
  Alcotest.(check string) "ms" "1.500ms" (Time.to_string (Time.of_ms 1.5))

(* ------------------------------------------------------------------ *)
(* Event_heap *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:30 ~seq:0 "c";
  Event_heap.push h ~time:10 ~seq:1 "a";
  Event_heap.push h ~time:20 ~seq:2 "b";
  let pop () =
    match Event_heap.pop h with Some (_, _, v) -> v | None -> "?"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:5 ~seq:i i
  done;
  let order = List.init 10 (fun _ ->
      match Event_heap.pop h with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order on tie" (List.init 10 Fun.id) order

let test_heap_empty () =
  let h = Event_heap.create () in
  check_bool "empty" true (Event_heap.is_empty h);
  check_bool "pop none" true (Event_heap.pop h = None);
  check_bool "peek none" true (Event_heap.peek_time h = None)

let test_heap_clear () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:1 ~seq:0 ();
  Event_heap.clear h;
  check_int "cleared" 0 (Event_heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i t -> Event_heap.push h ~time:t ~seq:i t) times;
      let rec drain acc =
        match Event_heap.pop h with
        | None -> List.rev acc
        | Some (t, _, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare popped
      && List.length popped = List.length times)

let test_heap_compact () =
  let h = Event_heap.create () in
  for i = 0 to 99 do
    Event_heap.push h ~time:((i * 7919) mod 1000) ~seq:i i
  done;
  Event_heap.compact h ~keep:(fun ~time:_ ~seq:_ v -> v mod 3 = 0);
  check_int "survivors" 34 (Event_heap.length h);
  let rec drain acc =
    match Event_heap.pop h with
    | None -> List.rev acc
    | Some (t, s, _) -> drain ((t, s) :: acc)
  in
  let keys = drain [] in
  check_bool "still sorted after compact" true (keys = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Timer_wheel: equivalence with a plain sorted structure *)

module Timer_wheel = Sim_engine.Timer_wheel

(* Drive a wheel (with the scheduler's heap-handoff protocol) and a
   reference list through the same random schedule/cancel/advance
   trace; both must fire the same events in the same (time, seq)
   order. Times are spread across wheel levels by shifting, so the
   trace exercises cascades, clamping and the level-0 cutoff. *)
let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel + handoff heap matches sorted reference"
    ~count:200
    QCheck.(list (pair (int_bound 4000) bool))
    (fun trace ->
      let wheel = Timer_wheel.create () in
      let heap = Event_heap.create () in
      let fired_wheel = ref [] in
      let emit (e : Timer_wheel.entry) =
        (* Late emission would be a wheel bug: the slot containing the
           entry must not start after the entry's exact due time. *)
        assert (Timer_wheel.cursor_ns wheel <= e.time);
        e.state <- Timer_wheel.st_heap;
        Event_heap.push heap ~time:e.time ~seq:e.seq e
      in
      let reference = ref [] in
      let entries =
        List.mapi
          (fun i (t0, cancel) ->
            (* Spread times across levels: every other event is shifted
               up 8 bits so some land beyond level 0's span. *)
            let time = 2048 + (t0 lsl (8 * (i mod 2))) in
            let e = Timer_wheel.make_entry ignore () in
            e.time <- time;
            e.seq <- i;
            if not (Timer_wheel.schedule wheel e) then begin
              e.state <- Timer_wheel.st_heap;
              Event_heap.push heap ~time ~seq:i e
            end;
            (e, time, cancel))
          trace
      in
      (* Cancel the marked ones: wheel residents unlink in O(1);
         heap residents become tombstones exactly as in the
         scheduler's [detach]. *)
      List.iter
        (fun ((e : Timer_wheel.entry), time, cancel) ->
          if cancel then begin
            if e.state = Timer_wheel.st_wheel then Timer_wheel.cancel wheel e
            else if e.state = Timer_wheel.st_heap then
              e.state <- Timer_wheel.st_idle
          end
          else reference := (time, e.seq) :: !reference)
        entries;
      (* Advance in uneven steps well past the largest time. *)
      let horizon = 2048 + (4000 lsl 8) + 10_000 in
      let step = ref 0 in
      while Timer_wheel.cursor_ns wheel < horizon do
        let upto =
          min horizon (Timer_wheel.cursor_ns wheel + 700 + (!step * 1013))
        in
        incr step;
        Timer_wheel.advance wheel ~upto ~emit;
        (* Drain everything the heap holds up to the cursor, as the
           scheduler's run loop would. *)
        while
          Event_heap.top_time heap <> max_int
          && Event_heap.top_time heap <= Timer_wheel.cursor_ns wheel
        do
          let t = Event_heap.top_time heap in
          let s = Event_heap.top_seq heap in
          let (e : Timer_wheel.entry) = Event_heap.top_value heap in
          Event_heap.drop heap;
          if e.state = Timer_wheel.st_heap && e.seq = s then begin
            e.state <- Timer_wheel.st_fired;
            fired_wheel := (t, s) :: !fired_wheel
          end
        done
      done;
      (* Anything still in the heap is due after the horizon — but the
         horizon exceeds every event time, so both sides must be done. *)
      let expected = List.sort compare (List.rev !reference) in
      List.rev !fired_wheel = expected)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

(* One-shot actions for these tests: an Event pool whose payload is the
   action itself. *)
let actions s = Scheduler.Event.pool s ~fire:(fun f -> f ())
let after p delay f = ignore (Scheduler.Event.schedule_after p delay f)
let at p time f = ignore (Scheduler.Event.schedule_at p time f)

let test_scheduler_order_and_clock () =
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  let note tag () = log := (tag, Time.to_ms (Scheduler.now s)) :: !log in
  after p (Time.of_ms 2.) (note "b");
  after p (Time.of_ms 1.) (note "a");
  after p (Time.of_ms 3.) (note "c");
  Scheduler.run s;
  Alcotest.(check (list (pair string (float 1e-6))))
    "events fire in order at their times"
    [ ("a", 1.); ("b", 2.); ("c", 3.) ]
    (List.rev !log)

let test_scheduler_same_time_fifo () =
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  for i = 0 to 4 do
    after p (Time.of_ms 1.) (fun () -> log := i :: !log)
  done;
  Scheduler.run s;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_scheduler_cancel () =
  let s = Scheduler.create () in
  let p = actions s in
  let fired = ref false in
  let c = Scheduler.Event.schedule_after p (Time.of_ms 1.) (fun () -> fired := true) in
  check_bool "cancel hands the action back" true
    (Option.is_some (Scheduler.Event.cancel p c));
  check_bool "not pending" false (Scheduler.Event.is_pending c);
  Scheduler.run s;
  check_bool "cancelled did not fire" false !fired

let test_scheduler_until () =
  let s = Scheduler.create () in
  let p = actions s in
  let count = ref 0 in
  for i = 1 to 10 do
    after p (Time.of_ms (float_of_int i)) (fun () -> incr count)
  done;
  Scheduler.run ~until:(Time.of_ms 5.) s;
  check_int "only events <= 5ms" 5 !count;
  Alcotest.(check (float 1e-6)) "clock at horizon" 5. (Time.to_ms (Scheduler.now s));
  Scheduler.run s;
  check_int "rest fire on resume" 10 !count

let test_scheduler_nested_scheduling () =
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  after p (Time.of_ms 1.) (fun () ->
      log := "outer" :: !log;
      after p (Time.of_ms 1.) (fun () -> log := "inner" :: !log));
  Scheduler.run s;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-6)) "final clock" 2. (Time.to_ms (Scheduler.now s))

let test_scheduler_past_rejected () =
  let s = Scheduler.create () in
  let p = actions s in
  after p (Time.of_ms 5.) (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Scheduler.Event.schedule_at: time is in the past")
        (fun () -> at p (Time.of_ms 1.) ignore));
  Scheduler.run s

let test_scheduler_max_events () =
  let s = Scheduler.create () in
  let p = actions s in
  let count = ref 0 in
  for i = 1 to 10 do
    after p (Time.of_ms (float_of_int i)) (fun () -> incr count)
  done;
  Scheduler.run ~max_events:3 s;
  check_int "bounded" 3 !count

let test_scheduler_counts () =
  let s = Scheduler.create () in
  let p = actions s in
  after p Time.zero ignore;
  after p Time.zero ignore;
  check_int "pending" 2 (Scheduler.pending_events s);
  Scheduler.run s;
  check_int "processed" 2 (Scheduler.events_processed s)

(* Random schedule/cancel trace against a sorted-list model: the
   scheduler (wheel + heap + tombstones underneath) must fire exactly
   the non-cancelled events in (time, insertion) order. Cancels happen
   during the run, from an event scheduled earlier than the victim. *)
let prop_scheduler_matches_model =
  QCheck.Test.make ~name:"scheduler matches sorted-list model" ~count:200
    QCheck.(list (pair (int_bound 5_000_000) (option (int_bound 4_999_999))))
    (fun trace ->
      let s = Scheduler.create () in
      let p = actions s in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t_ns, cancel_at) ->
          let h =
            Scheduler.Event.schedule_at p (Time.of_ns t_ns) (fun () ->
                fired := (t_ns, i) :: !fired)
          in
          (h, t_ns, cancel_at, i))
          trace
      in
      (* A cancel only counts when it strictly precedes the victim's
         due time; otherwise the victim fires first and the cancel is
         a no-op on an already-fired event. *)
      let expected = ref [] in
      List.iter
        (fun (h, t_ns, cancel_at, i) ->
          match cancel_at with
          | Some c_ns when c_ns < t_ns ->
            at p (Time.of_ns c_ns) (fun () ->
                ignore (Scheduler.Event.cancel p h))
          | Some _ | None -> expected := (t_ns, i) :: !expected)
        handles;
      Scheduler.run s;
      List.rev !fired = List.sort compare (List.rev !expected))

(* ------------------------------------------------------------------ *)
(* Scheduler.Timer *)

let test_timer_cancel_rearm () =
  let s = Scheduler.create () in
  let count = ref 0 in
  let tm = Scheduler.Timer.create s (fun () -> incr count) () in
  (* Cancel before first arm is a no-op; a cancelled arm never fires. *)
  Scheduler.Timer.cancel tm;
  Scheduler.Timer.schedule_after tm (Time.of_ms 1.);
  check_bool "pending after arm" true (Scheduler.Timer.is_pending tm);
  Scheduler.Timer.cancel tm;
  check_bool "idle after cancel" false (Scheduler.Timer.is_pending tm);
  Scheduler.run s;
  check_int "cancelled arm never fired" 0 !count;
  (* The closure survives cancel: re-arm still works. *)
  Scheduler.Timer.schedule_after tm (Time.of_ms 1.);
  Scheduler.run s;
  check_int "re-arm after cancel fires" 1 !count;
  (* Re-arm supersedes: only the latest deadline fires. *)
  Scheduler.Timer.schedule_after tm (Time.of_ms 5.);
  Scheduler.Timer.schedule_after tm (Time.of_ms 1.);
  Scheduler.run s;
  check_int "superseded arm fires once" 2 !count

let test_timer_seq_interleaving () =
  (* A Timer consumes one seq per arm, exactly like an Event cell: armed
     before a same-time one-shot, it fires first; re-armed after, it
     fires second. *)
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  let tm = Scheduler.Timer.create s (fun () -> log := "timer" :: !log) () in
  Scheduler.Timer.schedule_at tm (Time.of_ms 1.);
  at p (Time.of_ms 1.) (fun () -> log := "oneshot" :: !log);
  Scheduler.run s;
  Scheduler.Timer.schedule_at tm (Time.of_ms 2.);
  at p (Time.of_ms 2.) (fun () -> log := "oneshot2" :: !log);
  (* Re-arm after the one-shot: the timer moves behind it. *)
  Scheduler.Timer.schedule_at tm (Time.of_ms 2.);
  Scheduler.run s;
  Alcotest.(check (list string))
    "seq order across arms"
    [ "timer"; "oneshot"; "oneshot2"; "timer" ]
    (List.rev !log)

let test_scheduler_tombstones_and_compaction () =
  let s = Scheduler.create () in
  let p = actions s in
  (* 200 events within the level-0 cutoff (< 1024 ns), so they all land
     in the heap; cancelling all but every 10th leaves 180 tombstones,
     which must trip compaction (threshold: > 64 and > half the heap). *)
  let handles =
    List.init 200 (fun i ->
        Scheduler.Event.schedule_at p (Time.of_ns (i mod 1000)) ignore)
  in
  List.iteri
    (fun i h -> if i mod 10 <> 0 then ignore (Scheduler.Event.cancel p h))
    handles;
  check_int "pending counts live only" 20 (Scheduler.pending_events s);
  check_bool "compaction kept tombstones low" true
    (Scheduler.cancelled_pending s <= 100);
  Scheduler.run s;
  check_int "survivors fired" 20 (Scheduler.events_processed s);
  check_int "no pending after run" 0 (Scheduler.pending_events s);
  check_int "no tombstones after run" 0 (Scheduler.cancelled_pending s)

let test_scheduler_far_future () =
  (* An event beyond the wheel's ~9.8 h span takes the clamp path and
     re-dispatches as the cursor reaches it; order is preserved. *)
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  at p (Time.of_sec 50_000.) (fun () -> log := "far" :: !log);
  at p (Time.of_ms 1.) (fun () -> log := "near" :: !log);
  Scheduler.run s;
  Alcotest.(check (list string)) "near before far" [ "near"; "far" ]
    (List.rev !log);
  Alcotest.(check (float 1e-6))
    "clock at far event" 50_000. (Time.to_sec (Scheduler.now s))

(* ------------------------------------------------------------------ *)
(* Scheduler.Event: pooled typed cells *)

let test_event_cell_reuse () =
  (* A fire handler that re-arms into its own pool must reuse the very
     cell that just fired (release happens before the handler runs):
     a whole chain of sequential events costs one cell. *)
  let s = Scheduler.create () in
  let count = ref 0 in
  let pool_ref = ref None in
  let fire n =
    incr count;
    if n > 0 then
      match !pool_ref with
      | Some p -> ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) (n - 1))
      | None -> assert false
  in
  let p = Scheduler.Event.pool s ~fire in
  pool_ref := Some p;
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) 5);
  Scheduler.run s;
  check_int "whole chain fired" 6 !count;
  check_int "one cell ever allocated" 1 (Scheduler.event_cells_allocated s);
  check_int "cell back in the pool" 1 (Scheduler.event_cells_free s)

let test_event_cancel_then_rearm () =
  let s = Scheduler.create () in
  let got = ref [] in
  let p = Scheduler.Event.pool s ~fire:(fun v -> got := v :: !got) in
  let c = Scheduler.Event.schedule_after p (Time.of_ms 1.) 42 in
  check_bool "pending after arm" true (Scheduler.Event.is_pending c);
  (match Scheduler.Event.cancel p c with
  | Some v -> check_int "cancel hands the payload back" 42 v
  | None -> Alcotest.fail "cancel of an armed cell must return its payload");
  check_bool "idle after cancel" false (Scheduler.Event.is_pending c);
  Scheduler.run s;
  check_bool "cancelled event never fired" true (!got = []);
  (* The cancelled cell is pool property again: the next arm reuses it. *)
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) 7);
  check_int "cancelled cell reused" 1 (Scheduler.event_cells_allocated s);
  Scheduler.run s;
  Alcotest.(check (list int)) "re-arm fires with the new payload" [ 7 ] !got

let test_event_stale_cancel () =
  (* Cancelling a cell whose event already fired is a use-after-free
     on the cell: the pool may have reissued it. Generation parity
     catches it in the sanitizer profile; compiled out, the cancel is
     a silent no-op (the entry is idle). *)
  let s = Scheduler.create () in
  let p = Scheduler.Event.pool s ~fire:(fun (_ : int) -> ()) in
  let c = Scheduler.Event.schedule_after p (Time.of_ms 1.) 0 in
  Scheduler.run s;
  if Sim_engine.Sanitizer_mode.on then
    Alcotest.check_raises "stale handle trips the sanitizer"
      (Invalid_argument
         "Scheduler.Event.cancel: cell is not armed (already fired or \
          cancelled — stale cell handle)")
      (fun () -> ignore (Scheduler.Event.cancel p c))
  else
    check_bool "stale cancel is a no-op without the sanitizer" true
      (Scheduler.Event.cancel p c = None)

let test_event_pool_accounting () =
  (* Cells allocate at the high-water mark of in-flight events and
     never beyond it. *)
  let s = Scheduler.create () in
  let fired = ref 0 in
  let p = Scheduler.Event.pool s ~fire:(fun (_ : int) -> incr fired) in
  for i = 1 to 8 do
    ignore (Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) i)
  done;
  check_int "eight cells at the high-water mark" 8
    (Scheduler.event_cells_allocated s);
  check_int "none free while armed" 0 (Scheduler.event_cells_free s);
  Scheduler.run s;
  check_int "all fired" 8 !fired;
  check_int "all back in the pool" 8 (Scheduler.event_cells_free s);
  (* A second wave of the same width allocates nothing new. *)
  for i = 1 to 8 do
    ignore (Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) i)
  done;
  Scheduler.run s;
  check_int "steady state allocates no cells" 8
    (Scheduler.event_cells_allocated s)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let da = List.init 100 (fun _ -> Rng.int a 1000) in
  let db = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" da db

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let da = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let db = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "different seeds diverge" true (da <> db)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let c1 = List.init 10 (fun _ -> Rng.int child 1000) in
  (* Draining the parent must not change what an identically created
     child would have produced. *)
  let parent2 = Rng.create ~seed:7 in
  let child2 = Rng.split parent2 in
  ignore (List.init 50 (fun _ -> Rng.int parent2 10));
  let c2 = List.init 10 (fun _ -> Rng.int child2 1000) in
  Alcotest.(check (list int)) "split streams reproducible" c1 c2

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let v = Rng.float r 3.5 in
      v >= 0. && v < 3.5)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "empirical mean within 5%" true (Float.abs (mean -. 4.0) < 0.2)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let r = Rng.create ~seed in
      let a = Array.of_list l in
      Rng.shuffle r a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_rng_derangement =
  QCheck.Test.make ~name:"derangement has no fixed point" ~count:200
    QCheck.(pair small_int (int_range 2 200))
    (fun (seed, n) ->
      let r = Rng.create ~seed in
      let d = Rng.derangement r n in
      let no_fixed = Array.for_all Fun.id (Array.mapi (fun i v -> i <> v) d) in
      let is_perm = List.sort compare (Array.to_list d) = List.init n Fun.id in
      no_fixed && is_perm)

let test_rng_int_in () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    let v = Rng.int_in r 5 9 in
    check_bool "in range" true (v >= 5 && v <= 9)
  done

let test_rng_bad_args () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "exp mean" (Invalid_argument "Rng.exponential: mean must be positive")
    (fun () -> ignore (Rng.exponential r ~mean:0.))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_engine"
    [
      ( "sim_time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "scale" `Quick test_time_scale;
          Alcotest.test_case "negative rejected" `Quick test_time_negative_rejected;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "compact" `Quick test_heap_compact;
          qt prop_heap_sorts;
        ] );
      ("timer_wheel", [ qt prop_wheel_matches_heap ]);
      ( "scheduler",
        [
          Alcotest.test_case "order and clock" `Quick test_scheduler_order_and_clock;
          Alcotest.test_case "same-time fifo" `Quick test_scheduler_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_scheduler_cancel;
          Alcotest.test_case "run until" `Quick test_scheduler_until;
          Alcotest.test_case "nested scheduling" `Quick test_scheduler_nested_scheduling;
          Alcotest.test_case "past rejected" `Quick test_scheduler_past_rejected;
          Alcotest.test_case "max events" `Quick test_scheduler_max_events;
          Alcotest.test_case "counters" `Quick test_scheduler_counts;
          Alcotest.test_case "tombstones and compaction" `Quick
            test_scheduler_tombstones_and_compaction;
          Alcotest.test_case "far-future clamp" `Quick test_scheduler_far_future;
          qt prop_scheduler_matches_model;
        ] );
      ( "timer",
        [
          Alcotest.test_case "cancel and re-arm" `Quick test_timer_cancel_rearm;
          Alcotest.test_case "seq interleaving" `Quick test_timer_seq_interleaving;
        ] );
      ( "event_pool",
        [
          Alcotest.test_case "fire releases before handler (reuse)" `Quick
            test_event_cell_reuse;
          Alcotest.test_case "cancel then re-arm" `Quick
            test_event_cancel_then_rearm;
          Alcotest.test_case "stale handle cancel" `Quick test_event_stale_cancel;
          Alcotest.test_case "pool accounting" `Quick test_event_pool_accounting;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "bad arguments" `Quick test_rng_bad_args;
          qt prop_rng_int_bounds;
          qt prop_rng_float_bounds;
          qt prop_rng_shuffle_permutes;
          qt prop_rng_derangement;
        ] );
    ]

(* Unit and property tests for the discrete-event engine. *)

module Time = Sim_engine.Sim_time
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
(* Scheduler *)

(* One-shot actions for these tests: an Event pool whose payload is the
   action itself. *)
let actions s = Scheduler.Event.pool s ~fire:(fun f -> f ())
let after p delay f = Scheduler.Event.schedule_after p delay f
let at p time f = Scheduler.Event.schedule_at p time f

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

(* [stop] ends the run at the current instant: the rest of that
   instant fires, events of both heaps, and nothing later does; the
   clock stays at the stop instead of moving to [until]. A later [run]
   resumes where it stopped. *)
let test_scheduler_stop () =
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let tm = Scheduler.Timer.create s (note "timer") () in
  at p (Time.of_ms 1.) (note "early");
  at p (Time.of_ms 2.) (fun () ->
      note "stop" ();
      Scheduler.stop s);
  at p (Time.of_ms 2.) (note "same instant");
  Scheduler.Timer.schedule_at tm (Time.of_ms 2.);
  at p (Time.of_ms 3.) (note "later");
  Scheduler.run ~until:(Time.of_ms 10.) s;
  Alcotest.(check (list string)) "the stop instant fires, nothing later"
    [ "early"; "stop"; "same instant"; "timer" ] (List.rev !log);
  Alcotest.(check (float 1e-6)) "clock at the stop" 2.
    (Time.to_ms (Scheduler.now s));
  check_int "later event pending" 1 (Scheduler.pending_events s);
  Scheduler.run ~until:(Time.of_ms 10.) s;
  Alcotest.(check (list string)) "a new run resumes"
    [ "early"; "stop"; "same instant"; "timer"; "later" ] (List.rev !log);
  Alcotest.(check (float 1e-6)) "clock at the horizon" 10.
    (Time.to_ms (Scheduler.now s))

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

let test_scheduler_counts () =
  let s = Scheduler.create () in
  let p = actions s in
  after p Time.zero ignore;
  after p Time.zero ignore;
  check_int "pending" 2 (Scheduler.pending_events s);
  Scheduler.run s;
  check_int "processed" 2 (Scheduler.events_processed s)

(* A reserved seq keeps the same-instant order of the moment it was
   reserved, however late its event is armed: "b" is armed from an
   event at t=0 and arms "c" when it fires, yet both fire between "a"
   and "d", which were armed either side of the [reserve]. *)
let test_scheduler_reserved_order () =
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let ms1 = Time.of_ms 1. in
  at p ms1 (note "a");
  let first = Scheduler.reserve s 2 in
  at p ms1 (note "d");
  at p Time.zero (fun () ->
      note "z" ();
      Scheduler.Event.schedule_at_reserved p ms1 ~seq:first (fun () ->
          note "b" ();
          Scheduler.Event.schedule_at_reserved p ms1 ~seq:(first + 1)
            (note "c")));
  at p ms1 (fun () ->
      note "e" ();
      (* Seq [first] at this instant belongs before "e" itself. *)
      if Sim_engine.Sanitizer_mode.on then
        Alcotest.check_raises "key behind the firing event"
          (Invalid_argument
             "Scheduler.Event.schedule_at_reserved: key is behind the event \
              firing now")
          (fun () ->
            Scheduler.Event.schedule_at_reserved p ms1 ~seq:first ignore));
  Scheduler.run s;
  Alcotest.(check (list string)) "reserved seqs order same-instant events"
    [ "z"; "a"; "b"; "c"; "d"; "e" ] (List.rev !log)

(* [schedule_at_reserved] refuses a past time in every profile, and in
   the dev profile a seq that [reserve] never handed out. *)
let test_scheduler_reserved_rejects () =
  let s = Scheduler.create () in
  let p = actions s in
  let first = Scheduler.reserve s 2 in
  check_int "first block starts at seq 0" 0 first;
  if Sim_engine.Sanitizer_mode.on then
    Alcotest.check_raises "seq never reserved"
      (Invalid_argument "Scheduler.Event.schedule_at_reserved: seq was never reserved")
      (fun () ->
        Scheduler.Event.schedule_at_reserved p (Time.of_ms 1.) ~seq:(first + 2)
          ignore);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Scheduler.reserve: negative count") (fun () ->
      ignore (Scheduler.reserve s (-1)));
  after p (Time.of_ms 5.) (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Scheduler.Event.schedule_at_reserved: time is in the past")
        (fun () ->
          Scheduler.Event.schedule_at_reserved p (Time.of_ms 1.) ~seq:first ignore));
  Scheduler.run s;
  check_int "nothing left pending" 0 (Scheduler.pending_events s);
  (* Nothing has fired at an instant the clock only advanced to, so
     any reserved seq may still be armed there. *)
  Scheduler.run ~until:(Time.of_ms 6.) s;
  let fired = ref false in
  Scheduler.Event.schedule_at_reserved p (Time.of_ms 6.) ~seq:(first + 1)
    (fun () -> fired := true);
  Scheduler.run s;
  check_bool "armed at the horizon instant" true !fired

(* One-shot events and timers sit in two heaps; one instant holding
   both fires them by seq alone. Reserved "r" holds seq 0 but is armed
   last, by "z" at t=0. Timer "a" (seq 2) fires between "r" and the
   one-shot "e" (seq 3), re-arms itself at the same instant and so
   fires again after "f" (seq 4). A merge of the two roots by time
   alone would fire "e" before "a"; the dev profile's run-order check
   fails on that. *)
let test_scheduler_two_heaps_one_instant () =
  let s = Scheduler.create () in
  let p = actions s in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let ms1 = Time.of_ms 1. in
  let r = Scheduler.reserve s 1 in
  at p Time.zero (fun () ->
      note "z" ();
      Scheduler.Event.schedule_at_reserved p ms1 ~seq:r (note "r"));
  let rearmed = ref false in
  let rec fire_a tm =
    note "a" ();
    if not !rearmed then begin
      rearmed := true;
      Scheduler.Timer.schedule_at (Lazy.force tm) ms1
    end
  and a = lazy (Scheduler.Timer.create s fire_a a) in
  Scheduler.Timer.schedule_at (Lazy.force a) ms1;
  at p ms1 (note "e");
  at p ms1 (note "f");
  Scheduler.run s;
  Alcotest.(check (list string)) "one instant fires by seq"
    [ "z"; "r"; "a"; "e"; "f"; "a" ] (List.rev !log);
  check_int "six fired" 6 (Scheduler.events_processed s)

(* [run ~until] stops at the first root beyond the horizon, whichever
   heap holds it, and fires the other root when it is due. *)
let test_scheduler_until_between_roots () =
  let case ~event_first =
    let s = Scheduler.create () in
    let p = actions s in
    let log = ref [] in
    let tm = Scheduler.Timer.create s (fun () -> log := "timer" :: !log) () in
    let early, late = if event_first then (1., 3.) else (3., 1.) in
    at p (Time.of_ms early) (fun () -> log := "event" :: !log);
    Scheduler.Timer.schedule_at tm (Time.of_ms late);
    Scheduler.run ~until:(Time.of_ms 2.) s;
    let first = if event_first then "event" else "timer" in
    let second = if event_first then "timer" else "event" in
    Alcotest.(check (list string)) (first ^ " due before the horizon")
      [ first ] !log;
    Alcotest.(check (float 1e-6)) "clock at horizon" 2.
      (Time.to_ms (Scheduler.now s));
    check_int "one pending" 1 (Scheduler.pending_events s);
    Scheduler.run s;
    Alcotest.(check (list string)) (second ^ " fires on resume")
      [ first; second ] (List.rev !log)
  in
  case ~event_first:true;
  case ~event_first:false

(* Reference for the scheduler property: pending events in a map
   sorted by (time, seq), fired by repeatedly taking the least key.
   [arm] consumes one seq per call, like every scheduler arm;
   [reserve] takes a block of seqs that [arm_seq] uses later. *)
module Model = struct
  module M = Map.Make (struct
    type t = int * int

    let compare (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d
  end)

  type what = Fire of int | Do of (unit -> unit)

  type t = {
    mutable pending : what M.t;
    mutable size : int;
    mutable seq : int;
    keys : (int, int * int) Hashtbl.t;  (* label -> key while pending *)
    mutable log : (int * int) list;     (* (time, label), latest first *)
    mutable now : int;                  (* time of the last fired key *)
  }

  let create () =
    {
      pending = M.empty;
      size = 0;
      seq = 0;
      keys = Hashtbl.create 16;
      log = [];
      now = 0;
    }

  let note m l = m.log <- (m.now, l) :: m.log

  let unarm m l =
    match Hashtbl.find_opt m.keys l with
    | Some k ->
      m.pending <- M.remove k m.pending;
      m.size <- m.size - 1;
      Hashtbl.remove m.keys l
    | None -> ()

  let add m k what =
    m.pending <- M.add k what m.pending;
    m.size <- m.size + 1;
    match what with Fire l -> Hashtbl.replace m.keys l k | Do _ -> ()

  (* Like a Timer arm: a pending label is moved, not duplicated. *)
  let arm m time what =
    (match what with Fire l -> unarm m l | Do _ -> ());
    let k = (time, m.seq) in
    m.seq <- m.seq + 1;
    add m k what

  let reserve m n =
    let first = m.seq in
    m.seq <- first + n;
    first

  let arm_seq m time seq what = add m (time, seq) what

  (* Fire every event due at or before [until]. *)
  let rec run ?(until = max_int) m =
    match M.min_binding_opt m.pending with
    | Some (((time, _) as k), what) when time <= until ->
      m.pending <- M.remove k m.pending;
      m.size <- m.size - 1;
      m.now <- time;
      (match what with
      | Fire l ->
        Hashtbl.remove m.keys l;
        note m l
      | Do f -> f ());
      run ~until m
    | Some _ | None -> ()

  let next_time m = Option.map (fun ((time, _), _) -> time) (M.min_binding_opt m.pending)
end

type timer_op = Rearm_earlier | Rearm_later | Cancel_timer

(* Random trace against the sorted reference: the scheduler must fire
   exactly the events the model fires, at the same times and in the
   same order. Three input kinds, each armed in the same order on both
   sides:
   - one-shot Event cells;
   - re-armable Timers, each moved earlier, moved later or cancelled
     by an event due before it fires. This removes and re-keys entries
     in the middle of the heap; the re-arm takes the next seq when the
     moving event fires, on both sides;
   - blocks of seqs reserved between the one-shot arms. Each member is
     armed later with its reserved seq: by an event due strictly
     before it, so members go in in random order, or, when chained, by
     the firing of the member before it, at the same time or later
     (how a short host's next arrival is armed).
   Event cells and Timers sit in two heaps, so ties between their keys
   test the merge of the two roots. *)
let model_input =
  QCheck.(
    triple
      (list (int_bound 5_000_000))
      (list
         (triple (int_range 2 5_000_000) (int_bound 4_999_999)
            (oneofl [ Rearm_earlier; Rearm_later; Cancel_timer ])))
      (small_list
         (pair small_nat
            (small_list
               (triple (int_range 1 5_000_000) (int_bound 4_999_999) bool)))))

let matches_model ?(quantize = Fun.id) ?echo (trace, timers, blocks) =
  let s = Scheduler.create () in
  let p = actions s in
  let m = Model.create () in
  let log = ref [] in
  let note l = log := (Time.to_ns (Scheduler.now s), l) :: !log in
  (* [f] runs at [time] on the scheduler, [g] at [time] in the model. *)
  let act time f g =
    at p (Time.of_ns time) f;
    Model.arm m time (Model.Do g)
  in
  let n = List.length trace and n_timers = List.length timers in
  let next_label = ref (n + n_timers) in
  let reserve_block members =
    let members = Array.of_list members in
    let k = Array.length members in
    let first = Scheduler.reserve s k in
    if Model.reserve m k <> first then failwith "reserve: seq differs";
    let label = Array.init k (fun j -> !next_label + j) in
    next_label := !next_label + k;
    let chained j =
      let _, _, c = members.(j) in
      j > 0 && c
    in
    let time = Array.make k 0 in
    Array.iteri
      (fun j (t_ns, _, _) ->
        time.(j) <- (if chained j then max t_ns time.(j - 1) else t_ns))
      members;
    let rec arm_s j =
      Scheduler.Event.schedule_at_reserved p (Time.of_ns time.(j))
        ~seq:(first + j) (fun () ->
          note label.(j);
          if j + 1 < k && chained (j + 1) then arm_s (j + 1))
    in
    let rec arm_m j =
      Model.arm_seq m time.(j) (first + j)
        (Model.Do
           (fun () ->
             Model.note m label.(j);
             if j + 1 < k && chained (j + 1) then arm_m (j + 1)))
    in
    Array.iteri
      (fun j (_, act_at, _) ->
        if not (chained j) then
          act (quantize (act_at mod time.(j))) (fun () -> arm_s j)
            (fun () -> arm_m j))
      members
  in
  let reserve_at i =
    List.iter
      (fun (pos, members) -> if pos mod (n + 1) = i then reserve_block members)
      blocks
  in
  List.iteri
    (fun i t_ns ->
      reserve_at i;
      match echo with
      | None ->
        at p (Time.of_ns t_ns) (fun () -> note i);
        Model.arm m t_ns (Model.Fire i)
      | Some d ->
        (* Firing also arms a one-shot [d] later, whose seq is after
           that of every timer re-armed so far. *)
        let e = -1 - i in
        act t_ns
          (fun () ->
            note i;
            at p (Time.of_ns (t_ns + d)) (fun () -> note e))
          (fun () ->
            Model.note m i;
            Model.arm m (t_ns + d) (Model.Fire e)))
    trace;
  reserve_at n;
  List.iteri
    (fun j (t_ns, act_at, op) ->
      let l = n + j in
      let tm = Scheduler.Timer.create s note l in
      Scheduler.Timer.schedule_at tm (Time.of_ns t_ns);
      Model.arm m t_ns (Model.Fire l);
      let act_ns = quantize (act_at mod t_ns) in
      match op with
      | Cancel_timer ->
        act act_ns
          (fun () -> Scheduler.Timer.cancel tm)
          (fun () -> Model.unarm m l)
      | Rearm_earlier | Rearm_later ->
        let t' =
          quantize
            (if op = Rearm_earlier then act_ns + ((t_ns - act_ns) / 2)
             else t_ns + 1 + act_ns)
        in
        act act_ns
          (fun () -> Scheduler.Timer.schedule_at tm (Time.of_ns t'))
          (fun () -> Model.arm m t' (Model.Fire l)))
    timers;
  Scheduler.run s;
  Model.run m;
  List.rev !log = List.rev m.log

let prop_scheduler_matches_model =
  QCheck.Test.make ~name:"scheduler matches sorted-list model" ~count:200
    model_input matches_model

(* The same traces with every due time snapped to one of eight
   instants and every derived time (an action, a re-arm) rounded down
   to a multiple of their spacing, so most keys of one-shot events,
   timers and reserved members tie on time and fire by seq alone.
   Each one-shot of the trace also arms an echo one step after it
   fires, so a re-armed timer often ties with an event armed after
   it, which the merge of the two roots must fire second. *)
let prop_scheduler_matches_model_ties =
  let step = 625_000 in
  let snap t = step * (1 + (t mod 8)) in
  QCheck.Test.make ~name:"scheduler matches sorted-list model, tie-heavy"
    ~count:200 model_input (fun (trace, timers, blocks) ->
      matches_model
        ~quantize:(fun t -> t - (t mod step)) ~echo:step
        ( List.map snap trace,
          List.map (fun (t, a, op) -> (snap t, a, op)) timers,
          List.map
            (fun (pos, members) ->
              (pos, List.map (fun (t, a, c) -> (snap t, a, c)) members))
            blocks ))

(* Thousands of timers against the model, one due instant at a time.
   3 000 timers armed up front grow the heap arrays from 64 slots six
   times over. Between instants a fixed-seed stream of operations
   cancels timers (most from the middle of the heap), re-arms pending
   ones earlier or later (an in-place re-key), and re-arms fired or
   cancelled ones, which takes a recycled registry id. After every
   instant and every operation the firing log and [pending_events]
   must equal the model's. *)
let test_scheduler_stress () =
  let n = 3_000 in
  let s = Scheduler.create () and m = Model.create () in
  let rng = Rng.create ~seed:2026 in
  let log = ref [] in
  let note l = log := (Time.to_ns (Scheduler.now s), l) :: !log in
  let timers = Array.init n (fun l -> Scheduler.Timer.create s note l) in
  let check what =
    check_int (what ^ ": pending") m.Model.size (Scheduler.pending_events s);
    if !log <> m.Model.log then Alcotest.failf "%s: firing log differs" what
  in
  let arm l time =
    Scheduler.Timer.schedule_at timers.(l) (Time.of_ns time);
    Model.arm m time (Model.Fire l)
  in
  for l = 0 to n - 1 do
    arm l (Rng.int rng 1_000_000)
  done;
  check "armed";
  let counts = Array.make 4 0 in
  let op () =
    let l = Rng.int rng n and now = Time.to_ns (Scheduler.now s) in
    match (Hashtbl.find_opt m.Model.keys l, Rng.int rng 3) with
    | Some _, 0 ->
      counts.(0) <- counts.(0) + 1;
      Scheduler.Timer.cancel timers.(l);
      Model.unarm m l
    | Some (due, _), 1 ->
      counts.(1) <- counts.(1) + 1;
      arm l (now + Rng.int rng (due - now + 1))
    | Some (due, _), _ ->
      counts.(2) <- counts.(2) + 1;
      arm l (due + Rng.int rng 200_000)
    | None, _ ->
      counts.(3) <- counts.(3) + 1;
      arm l (now + Rng.int rng 300_000)
  in
  let steps = ref 0 in
  let rec loop () =
    match Model.next_time m with
    | None -> ()
    | Some due ->
      Scheduler.run ~until:(Time.of_ns due) s;
      Model.run ~until:due m;
      incr steps;
      check (Printf.sprintf "instant %d" !steps);
      if !steps <= 4_000 then
        for _ = 1 to Rng.int rng 4 do
          op ();
          check (Printf.sprintf "op after instant %d" !steps)
        done;
      loop ()
  in
  loop ();
  check_int "drained" 0 (Scheduler.pending_events s);
  Array.iteri
    (fun i c ->
      if c < 100 then Alcotest.failf "operation kind %d ran only %d times" i c)
    counts

(* A fired or cancelled timer leaves nothing of itself in the
   scheduler: once the caller drops it, its state can be collected. A
   pending one stays reachable through the scheduler until it fires. *)
let test_scheduler_releases_state () =
  let s = Scheduler.create () in
  let w = Weak.create 3 in
  let timer i =
    let state = ref i in
    Weak.set w i (Some state);
    Scheduler.Timer.create s incr state
  in
  let arm_and_drop i cancel =
    let tm = timer i in
    Scheduler.Timer.schedule_at tm (Time.of_ms (if i = 2 then 10. else 1.));
    if cancel then Scheduler.Timer.cancel tm
  in
  arm_and_drop 0 false;
  arm_and_drop 1 true;
  arm_and_drop 2 false;
  Scheduler.run ~until:(Time.of_ms 5.) s;
  Gc.full_major ();
  check_bool "fired timer's state collected" false (Weak.check w 0);
  check_bool "cancelled timer's state collected" false (Weak.check w 1);
  check_bool "pending timer's state kept" true (Weak.check w 2);
  check_int "one still pending" 1 (Scheduler.pending_events s)

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

let test_scheduler_mass_cancel () =
  (* Cancelling all but every 10th of 200 pending timers removes the
     cancelled ones from the heap at once: only the survivors count as
     pending, and they still fire in order. *)
  let s = Scheduler.create () in
  let fired = ref [] in
  let timers =
    List.init 200 (fun i ->
        let tm = Scheduler.Timer.create s (fun i -> fired := i :: !fired) i in
        Scheduler.Timer.schedule_at tm (Time.of_ns i);
        tm)
  in
  List.iteri
    (fun i tm -> if i mod 10 <> 0 then Scheduler.Timer.cancel tm)
    timers;
  check_int "pending counts live only" 20 (Scheduler.pending_events s);
  Scheduler.run s;
  check_int "survivors fired" 20 (Scheduler.events_processed s);
  Alcotest.(check (list int))
    "survivors in order" (List.init 20 (fun i -> 10 * i)) (List.rev !fired);
  check_int "no pending after run" 0 (Scheduler.pending_events s)

let test_scheduler_far_future () =
  (* An event ~14 h of virtual time out, armed before a near one,
     still fires after it and moves the clock all the way there. *)
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
      | Some p -> Scheduler.Event.schedule_after p (Time.of_ms 1.) (n - 1)
      | None -> assert false
  in
  let p = Scheduler.Event.pool s ~fire in
  pool_ref := Some p;
  Scheduler.Event.schedule_after p (Time.of_ms 1.) 5;
  Scheduler.run s;
  check_int "whole chain fired" 6 !count;
  check_int "one cell ever allocated" 1 (Scheduler.event_cells_allocated s);
  check_int "cell back in the pool" 1 (Scheduler.event_cells_free s)

let test_event_pool_accounting () =
  (* Cells allocate at the high-water mark of in-flight events and
     never beyond it. *)
  let s = Scheduler.create () in
  let fired = ref 0 in
  let p = Scheduler.Event.pool s ~fire:(fun (_ : int) -> incr fired) in
  for i = 1 to 8 do
    Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) i
  done;
  check_int "eight cells at the high-water mark" 8
    (Scheduler.event_cells_allocated s);
  check_int "none free while armed" 0 (Scheduler.event_cells_free s);
  Scheduler.run s;
  check_int "all fired" 8 !fired;
  check_int "all back in the pool" 8 (Scheduler.event_cells_free s);
  (* A second wave of the same width allocates nothing new. *)
  for i = 1 to 8 do
    Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) i
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

(* Pinned draws at seeds 1 and 42, generated before the generator's
   state moved into an unboxed representation: the first [Rng.int]
   values (at [max_int], so all 62 kept bits show), the bits of the
   next [Rng.float] draws, then the first draws of a [split] child.
   Every experiment's arrivals, ports and jitter come from these
   streams; a change here re-routes and re-times every figure. *)
let rng_golden_draws seed =
  let r = Rng.create ~seed in
  let ints = List.init 4 (fun _ -> Rng.int r max_int) in
  let floats = List.init 3 (fun _ -> Int64.bits_of_float (Rng.float r 1.0)) in
  let child = Rng.split r in
  let child_ints = List.init 3 (fun _ -> Rng.int child max_int) in
  (ints, floats, child_ints)

let test_rng_golden () =
  List.iter
    (fun (seed, (ints, floats, child_ints)) ->
      let got_ints, got_floats, got_child = rng_golden_draws seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (list int)) (name "int") ints got_ints;
      Alcotest.(check (list int64)) (name "float bits") floats got_floats;
      Alcotest.(check (list int)) (name "split child int") child_ints got_child)
    [
      ( 1,
        ( [ 4607041891190626162; 2257760148157278791; 3473225032429459623;
            3765288819495509292 ],
          [ 0x3fc9dd1794f3e0b4L; 0x3fe31087e915296fL; 0x3fdd2b5309350688L ],
          [ 3377271897212342752; 2415591997452748145; 3957461074510102088 ] ) );
      ( 42,
        ( [ 1773080229305530473; 2958219263312191191; 3069497704473277141;
            885919558081284366 ],
          [ 0x3fef62d40dca5d82L; 0x3fce187e2fea8348L; 0x3fd1e0b12d313f7cL ],
          [ 1162821432783061918; 3015038079686930769; 1061252013998382209 ] ) );
    ]

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
      ( "scheduler",
        [
          Alcotest.test_case "order and clock" `Quick test_scheduler_order_and_clock;
          Alcotest.test_case "same-time fifo" `Quick test_scheduler_same_time_fifo;
          Alcotest.test_case "run until" `Quick test_scheduler_until;
          Alcotest.test_case "stop at the current instant" `Quick
            test_scheduler_stop;
          Alcotest.test_case "nested scheduling" `Quick test_scheduler_nested_scheduling;
          Alcotest.test_case "past rejected" `Quick test_scheduler_past_rejected;
          Alcotest.test_case "counters" `Quick test_scheduler_counts;
          Alcotest.test_case "tombstones and compaction" `Quick
            test_scheduler_mass_cancel;
          Alcotest.test_case "far-future clamp" `Quick test_scheduler_far_future;
          Alcotest.test_case "reserved seqs keep their order" `Quick
            test_scheduler_reserved_order;
          Alcotest.test_case "reserved seqs: bad arms rejected" `Quick
            test_scheduler_reserved_rejects;
          Alcotest.test_case "two heaps: one instant fires by seq" `Quick
            test_scheduler_two_heaps_one_instant;
          Alcotest.test_case "run until between the two roots" `Quick
            test_scheduler_until_between_roots;
          qt prop_scheduler_matches_model;
          qt prop_scheduler_matches_model_ties;
          Alcotest.test_case "stress: growth, cancels, id reuse" `Quick
            test_scheduler_stress;
          Alcotest.test_case "fired and cancelled timers pin nothing" `Quick
            test_scheduler_releases_state;
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
          Alcotest.test_case "rng golden values" `Quick test_rng_golden;
          qt prop_rng_int_bounds;
          qt prop_rng_float_bounds;
          qt prop_rng_shuffle_permutes;
          qt prop_rng_derangement;
        ] );
    ]

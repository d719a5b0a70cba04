(* Discrete-event scheduler: one binary min-heap of intrusive entries,
   ordered by (time, seq). See DESIGN.md §4e.

   Every armed event carries a unique (time, seq) key; seq is a single
   monotone counter consumed once per arm, so events due at the same
   instant fire in the order they were armed. Each entry records its
   own heap index in [pos], so cancelling or re-arming a pending timer
   removes or re-keys it in place in O(log n) and nothing stale is left
   for the run loop to skip. *)

(* What to do when the entry fires: a fire function paired with the
   state it runs on. Packing the pair behind one existential keeps the
   entry monomorphic (the heap array needs that) while letting a
   re-armable timer or a pooled event cell install a *static* fire
   function once and never allocate per arm. *)
type erun = Run : ('a -> unit) * 'a -> erun

type entry = {
  mutable time : int;  (* due time, ns *)
  mutable seq : int;   (* insertion counter at last arm *)
  mutable run : erun;
  mutable pos : int;   (* heap index while pending, -1 otherwise *)
}

type t = {
  mutable heap : entry array;
  mutable size : int;
  idle : entry;  (* fills heap slots at index >= size *)
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable processed : int;
  (* Event-cell pool accounting across every {!Event.pool} of this
     scheduler, exposed to the Probe's self-profiling gauges. *)
  mutable cells_allocated : int;
  mutable cells_free : int;
  ctx : Sim_ctx.t;
}

let make_entry fire state = { time = 0; seq = 0; run = Run (fire, state); pos = -1 }

let create () =
  let idle = make_entry ignore () in
  {
    heap = Array.make 64 idle;
    size = 0;
    idle;
    now = Sim_time.zero;
    next_seq = 0;
    processed = 0;
    cells_allocated = 0;
    cells_free = 0;
    ctx = Sim_ctx.create ();
  }

let now t = t.now
let ctx t = t.ctx

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Move [e] up from the free slot [i] past every later parent, then
   store it. *)
let sift_up t e i =
  let heap = t.heap in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = heap.(parent) in
    if before e p then begin
      heap.(!i) <- p;
      p.pos <- !i;
      i := parent
    end
    else continue := false
  done;
  heap.(!i) <- e;
  e.pos <- !i

(* Fill the free slot [i] from below: walk the hole down to a leaf
   along the earlier child, then sift [e] up from there. [e] usually
   belongs near the bottom (a popped root's replacement, a timer pushed
   later), so this costs one comparison per level instead of two. *)
let sift_down t e i =
  let heap = t.heap and n = t.size in
  let i = ref i in
  let l = ref ((2 * !i) + 1) in
  while !l < n do
    let c = !l in
    let c = if c + 1 < n && before heap.(c + 1) heap.(c) then c + 1 else c in
    let ce = heap.(c) in
    heap.(!i) <- ce;
    ce.pos <- !i;
    i := c;
    l := (2 * c) + 1
  done;
  sift_up t e !i

(* Restore the heap property for [e], whose key changed while it sat
   in slot [i]. *)
let resift t e i =
  if i > 0 && before e t.heap.((i - 1) / 2) then sift_up t e i
  else sift_down t e i

let insert t e =
  if t.size = Array.length t.heap then begin
    let a = Array.make (2 * t.size) t.idle in
    Array.blit t.heap 0 a 0 t.size;
    t.heap <- a
  end;
  t.size <- t.size + 1;
  sift_up t e (t.size - 1)

(* Unlink pending [e]: the last entry takes its slot and is re-sifted
   from there. The vacated tail slot is reset so the heap pins no
   entry (and, through its fire state, no connection) after it fires. *)
let remove t e =
  let i = e.pos in
  e.pos <- -1;
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- t.idle;
  if i < t.size then resift t last i

(* Key [e] at [time] with the next seq — exactly one consumed per
   arm — and place it: re-keyed in its slot when already pending. *)
let arm t e time =
  e.time <- Sim_time.to_ns time;
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if e.pos >= 0 then resift t e e.pos else insert t e

let run ?until t =
  let horizon = match until with Some u -> Sim_time.to_ns u | None -> max_int in
  while t.size > 0 && t.heap.(0).time <= horizon do
    let e = t.heap.(0) in
    remove t e;
    t.now <- Sim_time.of_ns e.time;
    t.processed <- t.processed + 1;
    let (Run (fire, state)) = e.run in
    fire state
  done;
  (* When the queue drained (or only holds events beyond the horizon)
     advance the clock to the horizon, so repeated bounded runs make
     progress. *)
  match until with
  | Some u when Sim_time.(u > t.now) -> t.now <- u
  | Some _ | None -> ()

let pending_events t = t.size
let events_processed t = t.processed
let event_cells_allocated t = t.cells_allocated
let event_cells_free t = t.cells_free

module Timer = struct
  type sched = t

  type t = { sched : sched; entry : entry }

  let create sched fire state = { sched; entry = make_entry fire state }
  let is_pending tm = tm.entry.pos >= 0

  (* Keeps the fire/state pair: that is the point of the abstraction
     — one entry, one pair, reused across every re-arm of an RTO or
     delayed-ACK timer. *)
  let cancel tm = if tm.entry.pos >= 0 then remove tm.sched tm.entry

  let schedule_at tm time =
    if Sim_time.(time < tm.sched.now) then
      invalid_arg "Scheduler.Timer.schedule_at: time is in the past";
    arm tm.sched tm.entry time

  let schedule_after tm delay = schedule_at tm (Sim_time.add tm.sched.now delay)
end

module Event = struct
  type sched = t

  (* A pool of one-shot typed event cells sharing one fire function.
     Each cell owns its heap entry and a payload slot; the entry's
     [run] points back at the cell, so the steady-state path —
     acquire, fill payload, arm — allocates nothing. Cells return to
     the pool's freelist the moment they fire.

     The freelist is a plain array stack (the Packet pool's idiom);
     it starts empty and takes its first backing array from the first
     released cell, so no dummy payload value is ever needed. Freed
     slots above [free_count] keep stale cell pointers alive — cells
     are pool members for the scheduler's lifetime, so this pins no
     memory that was not already pinned. *)
  type 'a cell = {
    c_entry : entry;
    mutable c_payload : 'a;
    c_pool : 'a pool;
  }

  and 'a pool = {
    p_sched : sched;
    p_fire : 'a -> unit;
    mutable p_free : 'a cell array;
    mutable p_free_count : int;
  }

  let pool sched ~fire =
    { p_sched = sched; p_fire = fire; p_free = [||]; p_free_count = 0 }

  let release p c =
    if p.p_free_count = Array.length p.p_free then begin
      let a = Array.make (max 8 (2 * p.p_free_count)) c in
      Array.blit p.p_free 0 a 0 p.p_free_count;
      p.p_free <- a
    end;
    p.p_free.(p.p_free_count) <- c;
    p.p_free_count <- p.p_free_count + 1;
    p.p_sched.cells_free <- p.p_sched.cells_free + 1

  (* Static fire function shared by every cell: read the payload out,
     return the cell to the pool, then run the pool's handler. The
     release happens first so the handler may itself schedule into the
     same pool and reuse this very cell. *)
  let fire_cell c =
    let p = c.c_pool in
    let v = c.c_payload in
    release p c;
    p.p_fire v

  let acquire p v =
    if p.p_free_count > 0 then begin
      p.p_free_count <- p.p_free_count - 1;
      let c = p.p_free.(p.p_free_count) in
      p.p_sched.cells_free <- p.p_sched.cells_free - 1;
      c.c_payload <- v;
      c
    end
    else begin
      let c = { c_entry = make_entry ignore (); c_payload = v; c_pool = p } in
      c.c_entry.run <- Run (fire_cell, c);
      p.p_sched.cells_allocated <- p.p_sched.cells_allocated + 1;
      c
    end

  let schedule_at p time v =
    if Sim_time.(time < p.p_sched.now) then
      invalid_arg "Scheduler.Event.schedule_at: time is in the past";
    arm p.p_sched (acquire p v).c_entry time

  let schedule_after p delay v =
    schedule_at p (Sim_time.add p.p_sched.now delay) v
end

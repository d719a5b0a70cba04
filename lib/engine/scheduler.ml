(* Discrete-event scheduler: one binary min-heap ordered by
   (time, seq), kept in parallel int arrays. See DESIGN.md §4e.

   Every armed event carries a unique (time, seq) key; seq is a single
   monotone counter consumed once per arm, so events due at the same
   instant fire in the order they were armed.

   The heap holds no pointers. Slot [i] is the key [time.(i)],
   [seq.(i)] and the registry id [ids.(i)] of a pending entry; the
   entry itself sits at [reg.(id)], and [pos.(id)] is its heap slot.
   A sift therefore moves immediate ints only: no write barrier per
   level. An entry takes a free id when it is armed and gives it back
   when it fires or is cancelled; that arm and that release are the
   only pointer stores into the scheduler. Free ids are chained
   through [pos] ([-1] ends the list). Cancelling or re-arming a
   pending timer removes or re-keys its slot in place in O(log n), so
   nothing stale is left for the run loop to skip. *)

(* What to do when the entry fires: a fire function paired with the
   state it runs on. Packing the pair behind one existential keeps the
   entry monomorphic (the registry array needs that) while letting a
   re-armable timer or a pooled event cell install a *static* fire
   function once and never allocate per arm. *)
type erun = Run : ('a -> unit) * 'a -> erun

type entry = {
  mutable run : erun;
  mutable id : int;  (* registry id while pending, -1 otherwise *)
}

type t = {
  (* By heap slot, for slots below [size]. *)
  mutable time : int array;  (* due time, ns *)
  mutable seq : int array;   (* insertion counter at last arm *)
  mutable ids : int array;   (* registry id of the slot's entry *)
  (* By registry id. *)
  mutable pos : int array;   (* heap slot if pending, else next free id *)
  mutable reg : entry array; (* the pending entry, [idle] when free *)
  mutable free : int;        (* first free id, -1 when none *)
  mutable size : int;
  idle : entry;
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable fired_seq : int;  (* seq of the last event fired at [now], or -1 *)
  mutable processed : int;
  (* Event-cell pool accounting across every {!Event.pool} of this
     scheduler, exposed to the Probe's self-profiling gauges. *)
  mutable cells_allocated : int;
  mutable cells_free : int;
  ctx : Sim_ctx.t;
}

let make_entry fire state = { run = Run (fire, state); id = -1 }

(* The arrays start empty and take 64 slots at the first arm. *)
let create () =
  {
    time = [||];
    seq = [||];
    ids = [||];
    pos = [||];
    reg = [||];
    free = -1;
    size = 0;
    idle = make_entry ignore ();
    now = Sim_time.zero;
    next_seq = 0;
    fired_seq = -1;
    processed = 0;
    cells_allocated = 0;
    cells_free = 0;
    ctx = Sim_ctx.create ();
  }

let now t = t.now
let ctx t = t.ctx

(* Store key [(tm, sq)] with id [id] in slot [i]. *)
let place t i tm sq id =
  t.time.(i) <- tm;
  t.seq.(i) <- sq;
  t.ids.(i) <- id;
  t.pos.(id) <- i

(* Move key [(tm, sq)] of id [id] up from the free slot [i] past every
   later parent, then store it. *)
let sift_up t i tm sq id =
  let time = t.time and seq = t.seq in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = time.(parent) in
    if tm < pt || (tm = pt && sq < seq.(parent)) then begin
      place t !i pt seq.(parent) t.ids.(parent);
      i := parent
    end
    else continue := false
  done;
  place t !i tm sq id

(* Fill the free slot [i] from below: walk the hole down to a leaf
   along the earlier child, then sift the key up from there. The key
   usually belongs near the bottom (a popped root's replacement, a
   timer pushed later), so this costs one comparison per level instead
   of two. *)
let sift_down t i tm sq id =
  let time = t.time and seq = t.seq and n = t.size in
  let i = ref i in
  let l = ref ((2 * !i) + 1) in
  while !l < n do
    let c = !l in
    let c =
      if c + 1 < n then begin
        let tl = time.(c) and tr = time.(c + 1) in
        if tr < tl || (tr = tl && seq.(c + 1) < seq.(c)) then c + 1 else c
      end
      else c
    in
    place t !i time.(c) seq.(c) t.ids.(c);
    i := c;
    l := (2 * c) + 1
  done;
  sift_up t !i tm sq id

(* Restore the heap property for key [(tm, sq)] of id [id], placed in
   slot [i]. *)
let resift t i tm sq id =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let pt = t.time.(parent) in
    if tm < pt || (tm = pt && sq < t.seq.(parent)) then sift_up t i tm sq id
    else sift_down t i tm sq id
  end
  else sift_down t i tm sq id

(* Double every array. Only called with every id in use, so the new
   ids, chained in order, are the whole free list. *)
let grow t =
  let n = t.size in
  let n' = max 64 (2 * n) in
  let extend a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.ids <- extend t.ids 0;
  t.pos <- extend t.pos 0;
  t.reg <- extend t.reg t.idle;
  for id = n to n' - 2 do
    t.pos.(id) <- id + 1
  done;
  t.pos.(n' - 1) <- -1;
  t.free <- n

(* Unlink pending [e] and return its id to the free list: the last
   slot takes its slot and is re-sifted from there. The registry slot
   is reset so the scheduler pins no entry (and, through its fire
   state, no connection) after it fires. *)
let remove t e =
  let id = e.id in
  let i = t.pos.(id) in
  e.id <- -1;
  t.reg.(id) <- t.idle;
  t.pos.(id) <- t.free;
  t.free <- id;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then resift t i t.time.(last) t.seq.(last) t.ids.(last)

(* Key [e] at [time] with seq [sq] and place it: re-keyed in its slot
   when already pending. Inlined into both arms below. *)
let[@inline] arm_seq t e time sq =
  let tm = Sim_time.to_ns time in
  if e.id >= 0 then resift t t.pos.(e.id) tm sq e.id
  else begin
    if t.size = Array.length t.time then grow t;
    let id = t.free in
    t.free <- t.pos.(id);
    e.id <- id;
    t.reg.(id) <- e;
    t.size <- t.size + 1;
    sift_up t (t.size - 1) tm sq id
  end

(* Arm with the next seq: exactly one consumed per arm. *)
let arm t e time =
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  arm_seq t e time sq

let reserve t n =
  if n < 0 then invalid_arg "Scheduler.reserve: negative count";
  let first = t.next_seq in
  t.next_seq <- first + n;
  first

let run ?until t =
  let horizon = match until with Some u -> Sim_time.to_ns u | None -> max_int in
  while t.size > 0 && t.time.(0) <= horizon do
    let e = t.reg.(t.ids.(0)) in
    t.now <- Sim_time.of_ns t.time.(0);
    t.fired_seq <- t.seq.(0);
    remove t e;
    t.processed <- t.processed + 1;
    let (Run (fire, state)) = e.run in
    fire state
  done;
  (* When the queue drained (or only holds events beyond the horizon)
     advance the clock to the horizon, so repeated bounded runs make
     progress. *)
  match until with
  | Some u when Sim_time.(u > t.now) ->
    t.now <- u;
    t.fired_seq <- -1
  | Some _ | None -> ()

let pending_events t = t.size
let events_processed t = t.processed
let event_cells_allocated t = t.cells_allocated
let event_cells_free t = t.cells_free

module Timer = struct
  type sched = t

  type t = { sched : sched; entry : entry }

  let create sched fire state = { sched; entry = make_entry fire state }
  let is_pending tm = tm.entry.id >= 0

  (* Keeps the fire/state pair: that is the point of the abstraction
     — one entry, one pair, reused across every re-arm of an RTO. *)
  let cancel tm = if tm.entry.id >= 0 then remove tm.sched tm.entry

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

  (* The key must still lie ahead of every key that has fired: a
     reserved arm made after its key's turn would fire out of order.
     The dev profile checks that the seq was handed out by {!reserve}
     and that the key is not behind the event firing now. *)
  let schedule_at_reserved p time ~seq v =
    let s = p.p_sched in
    if Sim_time.(time < s.now) then
      invalid_arg "Scheduler.Event.schedule_at_reserved: time is in the past";
    if Sanitizer_mode.on then begin
      if seq < 0 || seq >= s.next_seq then
        invalid_arg "Scheduler.Event.schedule_at_reserved: seq was never reserved";
      if Sim_time.equal time s.now && seq <= s.fired_seq then
        invalid_arg
          "Scheduler.Event.schedule_at_reserved: key is behind the event \
           firing now"
    end;
    arm_seq s (acquire p v).c_entry time seq
end

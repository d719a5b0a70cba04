(* Discrete-event scheduler: two binary min-heaps ordered by
   (time, seq), kept in parallel int arrays. See DESIGN.md §4e.

   Every armed event carries a unique (time, seq) key; seq is a single
   monotone counter consumed once per arm, so events due at the same
   instant fire in the order they were armed. [run] fires the lesser
   of the two roots, so the split moves no event in the firing order.

   The event heap holds one-shot {!Event} cells, which nothing cancels
   or re-keys. A cell is a payload slot of its pool; it takes a
   permanent cell id when the pool makes it, and [cells.(cid)] and
   [cell_idx.(cid)] (its pool and slot) are written that once. Slot
   [i] of the heap is the key [ev_time.(i)], [ev_seq.(i)] and the cell
   id [ev_cid.(i)], so an arm, a pop and every sift level store
   immediate ints only: no write barrier. The payload is the one
   pointer an arm stores.

   The timer heap holds re-armable {!Timer}s. Slot [i] is the key
   [tm_time.(i)], [tm_seq.(i)] and the registry id [tm_ids.(i)] of a
   pending timer; the timer's entry sits at [reg.(id)], and [pos.(id)]
   is its heap slot. A timer takes a free id when it is armed and
   gives it back when it fires or is cancelled; those are the only
   pointer stores into this heap. Free ids are chained through [pos]
   ([-1] ends the list). Cancelling or re-arming a pending timer
   removes or re-keys its slot in place in O(log n), so nothing stale
   is left for the run loop to skip. *)

(* What to do when a timer fires: a fire function paired with the
   state it runs on. Packing the pair behind one existential keeps the
   timer registry monomorphic while letting a timer install a *static*
   fire function once and never allocate per arm. *)
type erun = Run : ('a -> unit) * 'a -> erun

type entry = {
  run : erun;
  mutable id : int;  (* registry id while pending, -1 otherwise *)
}

type t = {
  (* Event heap, by slot below [ev_size]. Each pending event is a
     distinct cell, so these arrays are as long as [cells] and an arm
     never grows them. *)
  mutable ev_time : int array;  (* due time, ns *)
  mutable ev_seq : int array;
  mutable ev_cid : int array;   (* cell id of the slot's event *)
  mutable ev_size : int;
  (* By cell id, below [n_cells]: the cell's pool and its index there. *)
  mutable cells : cell array;
  mutable cell_idx : int array;
  mutable n_cells : int;
  mutable cells_free : int;  (* cells parked on pool free stacks *)
  (* Timer heap, by slot below [tm_size]. *)
  mutable tm_time : int array;
  mutable tm_seq : int array;
  mutable tm_ids : int array;  (* registry id of the slot's timer *)
  (* By registry id. *)
  mutable pos : int array;   (* heap slot if pending, else next free id *)
  mutable reg : entry array; (* the pending entry, [idle] when free *)
  mutable free : int;        (* first free id, -1 when none *)
  mutable tm_size : int;
  idle : entry;
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable fired_seq : int;  (* seq of the last event fired at [now], or -1 *)
  mutable processed : int;
  mutable bound : int;  (* ns: the last instant [run] may fire; see [stop] *)
  ctx : Sim_ctx.t;
}

(* A pool of one-shot typed event cells sharing one fire function. A
   pool, once it has made a cell, lives as long as its scheduler. Freed
   slots keep their stale payloads until reused, which pins nothing
   the pool's own traffic did not. *)
and 'a pool = {
  p_sched : t;
  p_fire : 'a -> unit;
  mutable p_payload : 'a array;  (* by pool index, below [p_count] *)
  mutable p_count : int;
  mutable p_free : int array;  (* cell ids of the free cells, a stack *)
  mutable p_free_count : int;
}

(* The pool of a cell, its payload type hidden. *)
and cell = Cell : 'a pool -> cell

(* The arrays start empty: each heap takes 64 slots at its first
   arm. *)
let create () =
  {
    ev_time = [||];
    ev_seq = [||];
    ev_cid = [||];
    ev_size = 0;
    cells = [||];
    cell_idx = [||];
    n_cells = 0;
    cells_free = 0;
    tm_time = [||];
    tm_seq = [||];
    tm_ids = [||];
    pos = [||];
    reg = [||];
    free = -1;
    tm_size = 0;
    idle = { run = Run (ignore, ()); id = -1 };
    now = Sim_time.zero;
    next_seq = 0;
    fired_seq = -1;
    processed = 0;
    bound = max_int;
    ctx = Sim_ctx.create ();
  }

let now t = t.now
let ctx t = t.ctx

(* Key [(tm, sq)] fires before key [(tm', sq')]. *)
let[@inline] before (tm : int) (sq : int) tm' sq' =
  tm < tm' || (tm = tm' && sq < sq')

(* [before] for slots [a] and [b] of a heap, as 0 or 1. The sift-downs
   add it to the left child's index to pick the earlier child: the
   comparisons combine with [lor]/[land] rather than [||]/[&&], so
   ocamlopt computes the pick with [setcc] instead of a conditional
   jump, which a random heap mispredicts at about every other level.
   The order is [before]'s exactly, so the pops are the same. *)
let[@inline] earlier (time : int array) (seq : int array) a b =
  let ta = time.(a) and tb = time.(b) in
  Bool.to_int (ta < tb)
  lor (Bool.to_int (ta = tb) land Bool.to_int (seq.(a) < seq.(b)))

let extend a n n' fill =
  let b = Array.make n' fill in
  Array.blit a 0 b 0 n;
  b

(* ------------------------------------------------------------------ *)
(* Event heap *)

(* Move key [(tm, sq)] of cell [cid] up from the free slot [i] past
   every later parent, then store it. *)
let ev_sift_up t i tm sq cid =
  let time = t.ev_time and seq = t.ev_seq and cids = t.ev_cid in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = time.(parent) and ps = seq.(parent) in
    if before tm sq pt ps then begin
      time.(!i) <- pt;
      seq.(!i) <- ps;
      cids.(!i) <- cids.(parent);
      i := parent
    end
    else continue := false
  done;
  time.(!i) <- tm;
  seq.(!i) <- sq;
  cids.(!i) <- cid

(* Drop the root. The last slot's key fills the hole the way the timer
   heap's [tm_sift_down] does: walk the hole to a leaf along the
   earlier child, then sift the key up from there. *)
let ev_pop t =
  let n = t.ev_size - 1 in
  t.ev_size <- n;
  if n > 0 then begin
    let time = t.ev_time and seq = t.ev_seq and cids = t.ev_cid in
    let i = ref 0 and l = ref 1 in
    while !l < n do
      let c = !l in
      let c = if c + 1 < n then c + earlier time seq (c + 1) c else c in
      time.(!i) <- time.(c);
      seq.(!i) <- seq.(c);
      cids.(!i) <- cids.(c);
      i := c;
      l := (2 * c) + 1
    done;
    ev_sift_up t !i time.(n) seq.(n) cids.(n)
  end

let ev_push t cid time sq =
  let i = t.ev_size in
  t.ev_size <- i + 1;
  ev_sift_up t i (Sim_time.to_ns time) sq cid

(* The next cell id, for slot [idx] of [cell]'s pool. The cell table
   and the event heap double together when every id is in use. *)
let add_cell t cell idx =
  let n = t.n_cells in
  if n = Array.length t.cells then begin
    let n' = max 64 (2 * n) in
    t.ev_time <- extend t.ev_time n n' 0;
    t.ev_seq <- extend t.ev_seq n n' 0;
    t.ev_cid <- extend t.ev_cid n n' 0;
    t.cells <- extend t.cells n n' cell;
    t.cell_idx <- extend t.cell_idx n n' 0
  end;
  t.cells.(n) <- cell;
  t.cell_idx.(n) <- idx;
  t.n_cells <- n + 1;
  n

(* Fire cell [cid], slot [idx] of [p]: read the payload out, return
   the cell to the pool, then run the pool's handler. The release
   happens first so the handler may itself schedule into the same pool
   and reuse this very cell. The free stack is as long as
   [p_payload], so the push never grows it. *)
let fire_cell p cid idx =
  let v = p.p_payload.(idx) in
  p.p_free.(p.p_free_count) <- cid;
  p.p_free_count <- p.p_free_count + 1;
  p.p_sched.cells_free <- p.p_sched.cells_free + 1;
  p.p_fire v

(* ------------------------------------------------------------------ *)
(* Timer heap *)

(* Store key [(tm, sq)] with id [id] in timer slot [i]. *)
let place t i tm sq id =
  t.tm_time.(i) <- tm;
  t.tm_seq.(i) <- sq;
  t.tm_ids.(i) <- id;
  t.pos.(id) <- i

(* Move key [(tm, sq)] of id [id] up from the free slot [i] past every
   later parent, then store it. *)
let tm_sift_up t i tm sq id =
  let time = t.tm_time and seq = t.tm_seq in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = time.(parent) in
    if before tm sq pt seq.(parent) then begin
      place t !i pt seq.(parent) t.tm_ids.(parent);
      i := parent
    end
    else continue := false
  done;
  place t !i tm sq id

(* Fill the free slot [i] from below: walk the hole down to a leaf
   along the earlier child, then sift the key up from there. The key
   usually belongs near the bottom (a removed root's replacement, a
   timer pushed later), so this costs one comparison per level instead
   of two. *)
let tm_sift_down t i tm sq id =
  let time = t.tm_time and seq = t.tm_seq and n = t.tm_size in
  let i = ref i in
  let l = ref ((2 * !i) + 1) in
  while !l < n do
    let c = !l in
    let c = if c + 1 < n then c + earlier time seq (c + 1) c else c in
    place t !i time.(c) seq.(c) t.tm_ids.(c);
    i := c;
    l := (2 * c) + 1
  done;
  tm_sift_up t !i tm sq id

(* Restore the heap property for key [(tm, sq)] of id [id], placed in
   slot [i]. *)
let resift t i tm sq id =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before tm sq t.tm_time.(parent) t.tm_seq.(parent) then
      tm_sift_up t i tm sq id
    else tm_sift_down t i tm sq id
  end
  else tm_sift_down t i tm sq id

(* Double every timer array. Only called with every id in use, so the
   new ids, chained in order, are the whole free list. *)
let grow t =
  let n = t.tm_size in
  let n' = max 64 (2 * n) in
  t.tm_time <- extend t.tm_time n n' 0;
  t.tm_seq <- extend t.tm_seq n n' 0;
  t.tm_ids <- extend t.tm_ids n n' 0;
  t.pos <- extend t.pos n n' 0;
  t.reg <- extend t.reg n n' t.idle;
  for id = n to n' - 2 do
    t.pos.(id) <- id + 1
  done;
  t.pos.(n' - 1) <- -1;
  t.free <- n

(* Unlink pending [e] and return its id to the free list: the last
   slot takes its slot and is re-sifted from there. The registry slot
   is reset so the scheduler pins no timer (and, through its fire
   state, no connection) after it fires. *)
let remove t e =
  let id = e.id in
  let i = t.pos.(id) in
  e.id <- -1;
  t.reg.(id) <- t.idle;
  t.pos.(id) <- t.free;
  t.free <- id;
  let last = t.tm_size - 1 in
  t.tm_size <- last;
  if i < last then resift t i t.tm_time.(last) t.tm_seq.(last) t.tm_ids.(last)

(* Key [e] at [time] with the next seq and place it: re-keyed in its
   slot when already pending. *)
let arm t e time =
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  let tm = Sim_time.to_ns time in
  if e.id >= 0 then resift t t.pos.(e.id) tm sq e.id
  else begin
    if t.tm_size = Array.length t.tm_time then grow t;
    let id = t.free in
    t.free <- t.pos.(id);
    e.id <- id;
    t.reg.(id) <- e;
    t.tm_size <- t.tm_size + 1;
    tm_sift_up t (t.tm_size - 1) tm sq id
  end

(* ------------------------------------------------------------------ *)

let reserve t n =
  if n < 0 then invalid_arg "Scheduler.reserve: negative count";
  let first = t.next_seq in
  t.next_seq <- first + n;
  first

(* Move the clock to the key [(tm, sq)] about to fire. The dev profile
   checks that it lies strictly after the last key fired: the two-root
   merge and every reserved arm must keep the order total. *)
let[@inline] advance t tm sq =
  if Sanitizer_mode.on then begin
    let last = Sim_time.to_ns t.now in
    if not (before last t.fired_seq tm sq) then
      failwith
        (Printf.sprintf
           "Scheduler.run: key (%d ns, seq %d) fires after (%d ns, seq %d)" tm
           sq last t.fired_seq)
  end;
  t.now <- Sim_time.of_ns tm;
  t.fired_seq <- sq;
  t.processed <- t.processed + 1

let run ?until t =
  let horizon = match until with Some u -> Sim_time.to_ns u | None -> max_int in
  t.bound <- horizon;
  let continue = ref true in
  while !continue do
    if
      t.ev_size > 0
      && (t.tm_size = 0
         || before t.ev_time.(0) t.ev_seq.(0) t.tm_time.(0) t.tm_seq.(0))
    then begin
      let tm = t.ev_time.(0) in
      if tm > t.bound then continue := false
      else begin
        let cid = t.ev_cid.(0) in
        advance t tm t.ev_seq.(0);
        ev_pop t;
        let (Cell p) = t.cells.(cid) in
        fire_cell p cid t.cell_idx.(cid)
      end
    end
    else if t.tm_size > 0 then begin
      let tm = t.tm_time.(0) in
      if tm > t.bound then continue := false
      else begin
        let e = t.reg.(t.tm_ids.(0)) in
        advance t tm t.tm_seq.(0);
        remove t e;
        let (Run (fire, state)) = e.run in
        fire state
      end
    end
    else continue := false
  done;
  (* When the queue drained (or only holds events beyond the horizon)
     advance the clock to the horizon, so repeated bounded runs make
     progress. A run that [stop] cut short ends where it stopped. *)
  let stopped = t.bound < horizon in
  t.bound <- max_int;
  match until with
  | Some u when Sim_time.(u > t.now) && not stopped ->
    t.now <- u;
    t.fired_seq <- -1
  | Some _ | None -> ()

let stop t = t.bound <- Int.min t.bound (Sim_time.to_ns t.now)

let pending_events t = t.ev_size + t.tm_size
let events_processed t = t.processed
let event_cells_allocated t = t.n_cells
let event_cells_free t = t.cells_free

module Timer = struct
  type sched = t

  type t = { sched : sched; entry : entry }

  let create sched fire state = { sched; entry = { run = Run (fire, state); id = -1 } }
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
  type nonrec 'a pool = 'a pool

  (* The pool's arrays start empty and double from one cell, so a pool
     that never has two events in flight (a link's arrival) holds one.
     The payload array takes its filler from the payload being stored,
     so no dummy payload is ever needed. *)
  let pool sched ~fire =
    { p_sched = sched; p_fire = fire; p_payload = [||]; p_count = 0;
      p_free = [||]; p_free_count = 0 }

  let in_flight p = p.p_count - p.p_free_count

  let make_cell p v =
    let idx = p.p_count in
    if idx = Array.length p.p_payload then begin
      let n' = max 1 (2 * idx) in
      p.p_payload <- extend p.p_payload idx n' v;
      p.p_free <- extend p.p_free idx n' 0
    end;
    p.p_payload.(idx) <- v;
    p.p_count <- idx + 1;
    add_cell p.p_sched (Cell p) idx

  (* The cell id of a free cell now carrying [v]: the payload is the
     one pointer an arm stores. *)
  let acquire p v =
    if p.p_free_count > 0 then begin
      let k = p.p_free_count - 1 in
      p.p_free_count <- k;
      p.p_sched.cells_free <- p.p_sched.cells_free - 1;
      let cid = p.p_free.(k) in
      p.p_payload.(p.p_sched.cell_idx.(cid)) <- v;
      cid
    end
    else make_cell p v

  let schedule_at p time v =
    let s = p.p_sched in
    if Sim_time.(time < s.now) then
      invalid_arg "Scheduler.Event.schedule_at: time is in the past";
    let sq = s.next_seq in
    s.next_seq <- sq + 1;
    ev_push s (acquire p v) time sq

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
    ev_push s (acquire p v) time seq
end

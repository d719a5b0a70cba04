(* Incremental weighted max-min rate allocator over shared link
   capacities — the core of the fluid flow-level engine.

   Links are capacity buckets indexed by the topology's dense link
   ids; flows are weighted demands over a fixed path (an id array from
   [Topology.path]). Rates are in bits per second.

   The allocation is progressive filling (water-filling): all unfrozen
   flows grow proportionally to their weight until some link
   saturates; flows crossing that link freeze at [weight * level];
   repeat. Run over the whole population this yields the weighted
   max-min fair allocation. To keep arrival/departure events cheap at
   10^5-flow scale the recomputation is *scoped*: a mutation dirties
   only the flows sharing a link with the mutated flow, and [flush]
   water-fills the dirty set against the remaining population frozen
   at its current rates. Second-order effects (a rate change freeing
   capacity a 2-hop neighbour could claim) propagate through the
   ripple pass: committing a materially-changed rate re-dirties the
   flow's link neighbours, which are processed at the next flush. From an
   all-dirty start — every [add] dirties the new flow — one flush is
   exact weighted max-min, which is what the qcheck properties pin.

   Determinism: worklists are processed in deterministic queue order
   (no hashing anywhere), and the water-filling heap
   breaks level ties by link id, so allocation and callback order are
   pure functions of the mutation history. No wall clock, no ambient
   randomness, all state hangs off ['a t].

   Representation: flows are dense int ids, and per-flow state lives
   in arrays indexed by id: weight, committed rate and the
   water-filling new rate in float arrays, owner and one wave stamp in
   int arrays, and clean/dirty/dead in a byte string. Path links,
   interleaved with their slot back-indices, live in one flat int
   array of fixed-stride rows: flow [id]'s row starts at [id * stride]
   and holds [2 * f_len.(id)] ints. The stride is twice the longest
   path added so far; a longer path widens it and copies every row
   once. So a flow costs no heap block of its own beyond its handle,
   and a removed id's row is reused in place. Link
   member lists hold ids, so a member scan reads two int arrays
   instead of chasing a record per member, and queue stores are plain
   int stores without a write barrier. Per-link state is parallel
   float arrays. No float lives in a mixed record, where each store
   would box it: at fat-tree scale that allocation and its write
   barrier dominated the profile. A caller's ['a flow] is a handle
   holding its data, its id (-1 once removed) and the allocator. A
   removed flow's id is reused only after the next [flush] has drained
   the dirty queue, so no queue ever holds an id that names two flows;
   the dev profile checks this once each flush has done its work. *)

type 'a flow = {
  data : 'a;
  mutable id : int;  (* -1 once removed *)
  alloc : 'a t;
}

and 'a t = {
  on_rate : 'a flow -> unit;
  nlinks : int;
  (* per-link state, parallel arrays indexed by dense link id *)
  l_cap : float array;
  l_avail : float array;  (* capacity visible to the allocator *)
  l_alloc : float array;  (* sum of committed member rates *)
  l_dalloc : float array;  (* net alloc change this flush, ripple gate *)
  l_residual : float array;  (* water-filling scratch *)
  l_wsum : float array;  (* water-filling scratch *)
  l_busy : float array;  (* utilisation: integral of alloc, bit *)
  l_last : float array;  (* utilisation: last advance, seconds *)
  l_touched : bool array;
  l_members : int array array;  (* flow ids *)
  l_n : int array;
  mutable wave : int;  (* wave counter, >= 1 once a wave ran *)
  (* per-flow state, parallel arrays indexed by flow id *)
  mutable f_handle : 'a flow array;
  mutable f_owner : int array;  (* callback grouping key, >= 0 *)
  mutable f_weight : float array;
  mutable f_rate : float array;  (* committed allocation, bps *)
  mutable f_newrate : float array;  (* water-filling scratch *)
  (* [w] while an unfrozen member of wave [w], [-w] once frozen in
     it: one stamp answers "in this wave?", "frozen?" and, for the
     ripple after a flush's wave, "processed this flush?". *)
  mutable f_wave : int array;
  (* path link ids interleaved with the flow's slot in each link's
     member array, one row of [stride] ints per id:
     [| ...; l0; s0; l1; s1; ...; (unused) |], the row of [id] at
     [id * stride], its first [2 * f_len.(id)] ints in use *)
  mutable f_path : int array;
  mutable f_len : int array;  (* path length in links, 0 once removed *)
  mutable stride : int;  (* twice the longest path added so far *)
  mutable f_state : Bytes.t;  (* [clean], [dirty] or [dead] *)
  mutable next_id : int;  (* ids below this have been handed out *)
  (* ids of removed flows: [free.(0 .. free_n - 1)] are reusable,
     [free.(free_n .. free_top - 1)] wait for the next flush *)
  mutable free : int array;
  mutable free_n : int;
  mutable free_top : int;
  (* dirty queue: append-only vector deduplicated by [f_state]; the
     wave/touched/changed vectors below are per-flush scratch. All
     reusable storage so steady-state flushes allocate next to
     nothing — at population-wide wave sizes list churn was a GC
     hotspot. *)
  mutable d_arr : int array;
  mutable d_n : int;
  mutable d_live : int;  (* entries of [d_arr] whose flow is alive *)
  mutable w_arr : int array;
  mutable t_arr : int array;
  mutable t_n : int;
  mutable c_arr : int array;
  mutable c_n : int;
  (* per owner: index in [c_arr] of its last changed flow this pass —
     the one position whose callback fires. Only read for owners with
     a flow in the current [c_arr], so stale entries never matter. *)
  mutable o_last : int array;
  (* water-filling scratch: min-heap of candidate bottleneck links
     keyed by (fill level, link id). Entries go stale as freezing
     raises levels; levels only rise within a wave, so a popped entry
     lagging the link's current level is re-pushed, never lost. *)
  mutable h_lvl : float array;
  mutable h_li : int array;
  mutable h_n : int;
  (* self-profiling counters (monotonic; read by the engine's fluid
     gauges — plain int stores, free enough to maintain unconditionally) *)
  mutable s_live : int;  (* constrained flows currently registered *)
  mutable s_flushes : int;
  mutable s_waves : int;
  mutable s_settles : int;
  mutable s_heap_pops : int;
}

(* [f_state] values. *)
let clean = '\000'
let dirty = '\001'
let dead = '\002'

(* A flow whose path is empty (src = dst degenerate case) is never
   constrained; it gets this rate and never enters water-filling. *)
let unconstrained_rate = 1e15

(* Relative rate-change threshold for commit/callback; also gates
   ripple (see [create] in the interface). *)
let eps = 1e-3

let create ~caps ~on_rate () =
  Array.iter
    (fun cap ->
      if cap <= 0. then invalid_arg "Alloc.create: non-positive capacity")
    caps;
  let n = Array.length caps in
  {
    on_rate;
    nlinks = n;
    l_cap = Array.copy caps;
    l_avail = Array.copy caps;
    l_alloc = Array.make n 0.;
    l_dalloc = Array.make n 0.;
    l_residual = Array.make n 0.;
    l_wsum = Array.make n 0.;
    l_busy = Array.make n 0.;
    l_last = Array.make n 0.;
    l_touched = Array.make n false;
    l_members = Array.make n [||];
    l_n = Array.make n 0;
    wave = 0;
    f_handle = [||];
    f_owner = [||];
    f_weight = [||];
    f_rate = [||];
    f_newrate = [||];
    f_wave = [||];
    f_path = [||];
    f_len = [||];
    stride = 0;
    f_state = Bytes.empty;
    next_id = 0;
    free = [||];
    free_n = 0;
    free_top = 0;
    d_arr = [||];
    d_n = 0;
    d_live = 0;
    w_arr = [||];
    t_arr = Array.make 256 0;
    t_n = 0;
    c_arr = [||];
    c_n = 0;
    o_last = [||];
    h_lvl = Array.make 256 0.;
    h_li = Array.make 256 0;
    h_n = 0;
    s_live = 0;
    s_flushes = 0;
    s_waves = 0;
    s_settles = 0;
    s_heap_pops = 0;
  }

let data f = f.data
(* Inlined: a call would box the result in the engine's per-callback
   rate sum. *)
let[@inline] rate f = if f.id < 0 then 0. else f.alloc.f_rate.(f.id)
let weight f = if f.id < 0 then 0. else f.alloc.f_weight.(f.id)
let link_avail t ~link = t.l_avail.(link)
let link_alloc t ~link = t.l_alloc.(link)

let advance_integral t li ~now =
  if now > t.l_last.(li) then begin
    t.l_busy.(li) <- t.l_busy.(li) +. (t.l_alloc.(li) *. (now -. t.l_last.(li)));
    t.l_last.(li) <- now
  end

let finalize t ~now =
  for li = 0 to t.nlinks - 1 do
    advance_integral t li ~now
  done

let link_utilisation t ~link ~now =
  if now <= 0. then 0. else t.l_busy.(link) /. (t.l_cap.(link) *. now)

(* [a] doubled, contents kept. *)
let grown a =
  let bigger = Array.make (max 16 (2 * Array.length a)) 0 in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let mark_dirty t id =
  if Bytes.get t.f_state id = clean then begin
    Bytes.set t.f_state id dirty;
    t.d_live <- t.d_live + 1;
    if t.d_n = Array.length t.d_arr then t.d_arr <- grown t.d_arr;
    t.d_arr.(t.d_n) <- id;
    t.d_n <- t.d_n + 1
  end

let mark_members_dirty t li =
  let members = t.l_members.(li) in
  for j = 0 to t.l_n.(li) - 1 do
    mark_dirty t members.(j)
  done

let push_member t li id =
  let n = t.l_n.(li) in
  if n = Array.length t.l_members.(li) then begin
    let bigger = Array.make (max 4 (2 * n)) 0 in
    Array.blit t.l_members.(li) 0 bigger 0 n;
    t.l_members.(li) <- bigger
  end;
  t.l_members.(li).(n) <- id;
  t.l_n.(li) <- n + 1;
  n

(* Swap-remove member at [slot]; the displaced flow's back-index for
   [link_idx] is patched by scanning its (short) path. *)
let remove_member t ~link_idx ~slot =
  let last = t.l_n.(link_idx) - 1 in
  if slot <> last then begin
    let members = t.l_members.(link_idx) in
    let moved = members.(last) in
    members.(slot) <- moved;
    let path = t.f_path in
    let j = ref (moved * t.stride) in
    let stop = !j + (2 * t.f_len.(moved)) in
    while !j < stop && not (path.(!j) = link_idx && path.(!j + 1) = last) do
      j := !j + 2
    done;
    if !j < stop then path.(!j + 1) <- slot
  end;
  t.l_n.(link_idx) <- last

(* Per-id storage grows by doubling; [h] fills the new handle slots. *)
let grow_ids t h =
  let n = Array.length t.f_owner in
  let cap = max 16 (2 * n) in
  let extend a fill =
    let bigger = Array.make cap fill in
    Array.blit a 0 bigger 0 n;
    bigger
  in
  t.f_handle <- extend t.f_handle h;
  t.f_owner <- extend t.f_owner 0;
  t.f_weight <- extend t.f_weight 0.;
  t.f_rate <- extend t.f_rate 0.;
  t.f_newrate <- extend t.f_newrate 0.;
  t.f_wave <- extend t.f_wave 0;
  t.f_len <- extend t.f_len 0;
  let path = Array.make (cap * t.stride) 0 in
  Array.blit t.f_path 0 path 0 (n * t.stride);
  t.f_path <- path;
  let state = Bytes.make cap dead in
  Bytes.blit t.f_state 0 state 0 n;
  t.f_state <- state

(* Widen every row to [stride] ints, copying the rows in use. *)
let restride t stride =
  let path = Array.make (Array.length t.f_owner * stride) 0 in
  for id = 0 to t.next_id - 1 do
    Array.blit t.f_path (id * t.stride) path (id * stride) (2 * t.f_len.(id))
  done;
  t.f_path <- path;
  t.stride <- stride

let fresh_id t h =
  if t.free_n > 0 then begin
    let id = t.free.(t.free_n - 1) in
    t.free_n <- t.free_n - 1;
    t.free_top <- t.free_top - 1;
    t.free.(t.free_n) <- t.free.(t.free_top);
    id
  end
  else begin
    if t.next_id = Array.length t.f_owner then grow_ids t h;
    t.next_id <- t.next_id + 1;
    t.next_id - 1
  end

let add t ~owner ~weight ~path ~data =
  if weight <= 0. then invalid_arg "Alloc.add: weight must be positive";
  if owner < 0 then invalid_arg "Alloc.add: negative owner";
  if owner >= Array.length t.o_last then begin
    let bigger = Array.make (max (owner + 1) (2 * Array.length t.o_last)) 0 in
    Array.blit t.o_last 0 bigger 0 (Array.length t.o_last);
    t.o_last <- bigger
  end;
  let f = { data; id = -1; alloc = t } in
  let id = fresh_id t f in
  f.id <- id;
  t.f_handle.(id) <- f;
  t.f_owner.(id) <- owner;
  t.f_weight.(id) <- weight;
  t.f_rate.(id) <- 0.;
  t.f_newrate.(id) <- 0.;
  t.f_wave.(id) <- 0;
  Bytes.set t.f_state id clean;
  let len = Array.length path in
  if 2 * len > t.stride then restride t (2 * len);
  t.f_len.(id) <- len;
  if len = 0 then t.f_rate.(id) <- unconstrained_rate
  else begin
    t.s_live <- t.s_live + 1;
    let base = id * t.stride in
    for j = 0 to len - 1 do
      let li = path.(j) in
      t.f_path.(base + (2 * j)) <- li;
      t.f_path.(base + (2 * j) + 1) <- push_member t li id;
      mark_members_dirty t li
    done;
    mark_dirty t id
  end;
  f

let remove t ~now f =
  let id = f.id in
  if id >= 0 then begin
    f.id <- -1;
    if Bytes.get t.f_state id = dirty then t.d_live <- t.d_live - 1;
    Bytes.set t.f_state id dead;
    let len = t.f_len.(id) in
    if len > 0 then t.s_live <- t.s_live - 1;
    let rate = t.f_rate.(id) and base = id * t.stride in
    for j = 0 to len - 1 do
      let li = t.f_path.(base + (2 * j)) in
      remove_member t ~link_idx:li ~slot:t.f_path.(base + (2 * j) + 1);
      advance_integral t li ~now;
      t.l_alloc.(li) <- t.l_alloc.(li) -. rate;
      mark_members_dirty t li
    done;
    t.f_rate.(id) <- 0.;
    t.f_len.(id) <- 0;
    if t.free_top = Array.length t.free then t.free <- grown t.free;
    t.free.(t.free_top) <- id;
    t.free_top <- t.free_top + 1
  end

let set_avail t ~link bps =
  let v = Float.max 0. (Float.min bps t.l_cap.(link)) in
  if t.l_avail.(link) <> v then begin
    t.l_avail.(link) <- v;
    mark_members_dirty t link
  end

let tiny = 1e-9

(* The current fill level a link offers its unfrozen wave members;
   [infinity] once no unfrozen weight remains. *)
let[@inline] link_level t li =
  if t.l_wsum.(li) > tiny then
    Float.max 0. t.l_residual.(li) /. t.l_wsum.(li)
  else infinity

(* Bottleneck heap: entries are (h_lvl.(i), h_li.(i)), ordered by
   level then link id. Sifts move a hole instead of swapping: one
   compare and one store per level, with the moving key held in
   locals, so float keys never box. The heap's keys are unique up to
   identical entries, so any correct heap pops the same sequence. *)

(* Entry [a] orders before entry [b] in [heap_sift_up]'s order, as 0
   or 1. [heap_pop] adds it to the left child's index to pick the
   smaller child. [lor]/[land], not [||]/[&&]: ocamlopt then computes
   the pick with [cmpltsd]/[setcc] instead of a conditional jump, which
   a random heap mispredicts at about every other level (DESIGN.md
   §4e). *)
let[@inline] earlier (lvls : float array) (lis : int array) a b =
  let la = lvls.(a) and lb = lvls.(b) in
  Bool.to_int (la < lb)
  lor (Bool.to_int (la = lb) land Bool.to_int (lis.(a) < lis.(b)))

(* Sift the entry stored at slot [i] up to its place. *)
let heap_sift_up t i =
  let lvls = t.h_lvl and lis = t.h_li in
  let lvl = lvls.(i) and li = lis.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let plvl = lvls.(p) in
    if lvl < plvl || (lvl = plvl && li < lis.(p)) then begin
      lvls.(!i) <- plvl;
      lis.(!i) <- lis.(p);
      i := p
    end
    else moving := false
  done;
  lvls.(!i) <- lvl;
  lis.(!i) <- li

let[@inline] heap_push t lvl li =
  if t.h_n = Array.length t.h_lvl then begin
    let n = 2 * t.h_n in
    let lvls = Array.make n 0. and lis = Array.make n 0 in
    Array.blit t.h_lvl 0 lvls 0 t.h_n;
    Array.blit t.h_li 0 lis 0 t.h_n;
    t.h_lvl <- lvls;
    t.h_li <- lis
  end;
  t.h_lvl.(t.h_n) <- lvl;
  t.h_li.(t.h_n) <- li;
  t.h_n <- t.h_n + 1;
  heap_sift_up t (t.h_n - 1)

(* Pops the min entry into (h_lvl.(h_n), h_li.(h_n)) — read it right
   after the call; the slot is reused by the next push. The root's
   hole walks down along the smaller child to a leaf, then the former
   last entry fills it and sifts up (usually not far: it came from the
   bottom). *)
let heap_pop t =
  t.s_heap_pops <- t.s_heap_pops + 1;
  let lvls = t.h_lvl and lis = t.h_li in
  let n = t.h_n - 1 in
  t.h_n <- n;
  let top_lvl = lvls.(0) and top_li = lis.(0) in
  let i = ref 0 in
  let c = ref 1 in
  while !c < n do
    let r = !c + 1 in
    if r < n then c := !c + earlier lvls lis r !c;
    lvls.(!i) <- lvls.(!c);
    lis.(!i) <- lis.(!c);
    i := !c;
    c := (2 * !c) + 1
  done;
  lvls.(!i) <- lvls.(n);
  lis.(!i) <- lis.(n);
  heap_sift_up t !i;
  lvls.(n) <- top_lvl;
  lis.(n) <- top_li

let touch_link t li =
  if not t.l_touched.(li) then begin
    t.l_touched.(li) <- true;
    if t.t_n = Array.length t.t_arr then t.t_arr <- grown t.t_arr;
    t.t_arr.(t.t_n) <- li;
    t.t_n <- t.t_n + 1
  end

(* The wave scratch, with room for [n] ids (contents dropped). *)
let wave_scratch t n =
  if Array.length t.w_arr < n then
    t.w_arr <- Array.make (max n (2 * Array.length t.w_arr)) 0;
  t.w_arr

let push_changed t id =
  if t.c_n = Array.length t.c_arr then t.c_arr <- grown t.c_arr;
  t.c_arr.(t.c_n) <- id;
  t.o_last.(t.f_owner.(id)) <- t.c_n;
  t.c_n <- t.c_n + 1

(* Callbacks last, after every rate of the pass is committed, so a
   callback reading a sibling flow sees final values: once per owner,
   at the position of its last changed flow. That position is where
   the last of the per-flow callbacks an owner would otherwise get
   lands, so callbacks that act on the owner as a whole run in the
   same relative order either way. *)
let fire_changed t =
  for i = 0 to t.c_n - 1 do
    let id = t.c_arr.(i) in
    if t.o_last.(t.f_owner.(id)) = i then t.on_rate t.f_handle.(id)
  done

(* One wave: water-fill the flows whose ids are the [n]-prefix of
   [ids] (all alive) against the rest of the population frozen at its
   committed rates. Appends the ids whose committed rate materially
   changed to [t.c_arr] (queue order).

   The progressive filling runs off the scratch heap: pop the lowest
   candidate level, discard it if stale (freezing only raises levels,
   so current < entry is impossible and current > entry means
   re-push), otherwise saturate that link — freeze its unfrozen wave
   members at [weight * level] and charge their paths. Neighbour
   levels rise as paths are charged; their old (lower) heap entries
   stay valid as lower bounds and are lazily re-pushed at pop time.
   Cost is O(freezes * path * log) instead of a full touched-link
   scan per freezing round, which is what made population-wide waves
   on big fat-trees quadratic in the link count. *)
let run_wave t ~now ids n =
  t.s_waves <- t.s_waves + 1;
  t.wave <- t.wave + 1;
  let wave = t.wave and frozen = -t.wave in
  (* No flow is added during a wave, so the per-id arrays and the
     stride stay put. *)
  let f_wave = t.f_wave
  and f_weight = t.f_weight
  and f_rate = t.f_rate
  and f_newrate = t.f_newrate
  and f_path = t.f_path
  and f_len = t.f_len
  and stride = t.stride in
  for i = 0 to n - 1 do
    let id = ids.(i) in
    f_wave.(id) <- wave;
    f_newrate.(id) <- f_rate.(id)
  done;
  (* Collect touched links, set up residual capacity and unfrozen
     weight. Members outside the wave are reservations; rather than
     scanning every member array, start from the maintained committed
     sum: residual = avail - alloc + (wave members' own rates), which
     is O(path) per flow even when the wave is a small slice of a
     heavily-shared link. The heap's (level, id) keys are unique, so
     pop order — and with it the allocation — is independent of the
     order links enter here. *)
  t.t_n <- 0;
  for i = 0 to n - 1 do
    let id = ids.(i) in
    let base = id * stride in
    let rate = f_rate.(id) and w = f_weight.(id) in
    for j = 0 to f_len.(id) - 1 do
      let li = f_path.(base + (2 * j)) in
      if not t.l_touched.(li) then begin
        touch_link t li;
        t.l_residual.(li) <- t.l_avail.(li) -. t.l_alloc.(li);
        t.l_wsum.(li) <- 0.
      end;
      t.l_residual.(li) <- t.l_residual.(li) +. rate;
      t.l_wsum.(li) <- t.l_wsum.(li) +. w
    done
  done;
  t.h_n <- 0;
  for i = 0 to t.t_n - 1 do
    let li = t.t_arr.(i) in
    t.l_residual.(li) <- Float.min t.l_residual.(li) t.l_avail.(li);
    let lvl = link_level t li in
    if lvl < infinity then heap_push t lvl li
  done;
  let unfrozen = ref n in
  while !unfrozen > 0 && t.h_n > 0 do
    heap_pop t;
    let elvl = t.h_lvl.(t.h_n) and li = t.h_li.(t.h_n) in
    let cur = link_level t li in
    if cur = infinity then ()  (* every wave member already frozen *)
    else if cur > (elvl *. (1. +. 1e-9)) +. tiny then heap_push t cur li
    else begin
      let lvl = cur in
      let members = t.l_members.(li) in
      for j = 0 to t.l_n.(li) - 1 do
        let id = members.(j) in
        if f_wave.(id) = wave then begin
          f_wave.(id) <- frozen;
          decr unfrozen;
          let w = f_weight.(id) in
          let nr = w *. lvl in
          f_newrate.(id) <- nr;
          let base = id * stride in
          for p = 0 to f_len.(id) - 1 do
            let li' = f_path.(base + (2 * p)) in
            t.l_residual.(li') <- t.l_residual.(li') -. nr;
            t.l_wsum.(li') <- t.l_wsum.(li') -. w
          done
        end
      done
    end
  done;
  (* Numerical corner: weight sums cancelled to ~0 with flows still
     unfrozen. Freeze the stragglers at their per-path bottleneck
     share and stop. A flow with an empty path has no bottleneck and
     keeps the unconstrained rate [add] gave it. *)
  if !unfrozen > 0 then
    for i = 0 to n - 1 do
      let id = ids.(i) in
      if f_wave.(id) = wave then begin
        let w = f_weight.(id) in
        let base = id * stride in
        let share = ref infinity in
        for p = 0 to f_len.(id) - 1 do
          share :=
            Float.min !share
              (Float.max 0. t.l_residual.(f_path.(base + (2 * p)))
              /. Float.max w tiny)
        done;
        f_newrate.(id) <-
          (if !share = infinity then unconstrained_rate else w *. !share);
        f_wave.(id) <- frozen;
        decr unfrozen
      end
    done;
  for i = 0 to t.t_n - 1 do
    t.l_touched.(t.t_arr.(i)) <- false
  done;
  (* Commit: update link sums and report materially-changed rates. *)
  for i = 0 to n - 1 do
    let id = ids.(i) in
    let nr = f_newrate.(id) and old = f_rate.(id) in
    if Float.abs (nr -. old) > eps *. Float.max 1. (Float.max nr old)
    then begin
      let base = id * stride in
      for p = 0 to f_len.(id) - 1 do
        let li = f_path.(base + (2 * p)) in
        advance_integral t li ~now;
        t.l_alloc.(li) <- t.l_alloc.(li) -. old +. nr;
        t.l_dalloc.(li) <- t.l_dalloc.(li) -. old +. nr
      done;
      f_rate.(id) <- nr;
      push_changed t id
    end
  done

(* Dev-profile invariants of id reuse, checked once a flush's own work
   is done (before its callbacks, which may legally remove flows): no
   removed id on a link or in the dirty queue, every slot back-index
   names its own member entry, and the live and dirty counts match
   the state bytes. Exact checks, no tolerance. *)
let check_ids t =
  let fail fmt = Printf.ksprintf failwith ("Alloc.flush: " ^^ fmt) in
  for li = 0 to t.nlinks - 1 do
    let members = t.l_members.(li) in
    for s = 0 to t.l_n.(li) - 1 do
      if Bytes.get t.f_state members.(s) = dead then
        fail "removed flow id %d is member %d of link %d" members.(s) s li
    done
  done;
  for i = 0 to t.d_n - 1 do
    if Bytes.get t.f_state t.d_arr.(i) <> dirty then
      fail "flow id %d in the dirty queue is not dirty" t.d_arr.(i)
  done;
  if t.d_live <> t.d_n then
    fail "dirty count %d, queue holds %d" t.d_live t.d_n;
  let live = ref 0 in
  for id = 0 to t.next_id - 1 do
    if Bytes.get t.f_state id <> dead then begin
      let len = t.f_len.(id) and base = id * t.stride in
      if len > 0 then incr live;
      for p = 0 to len - 1 do
        let li = t.f_path.(base + (2 * p))
        and s = t.f_path.(base + (2 * p) + 1) in
        if s >= t.l_n.(li) || t.l_members.(li).(s) <> id then
          fail "flow id %d: slot %d of link %d holds another flow" id s li
      done
    end
  done;
  if !live <> t.s_live then
    fail "%d flows on links, live_flows says %d" !live t.s_live

let flush t ~now =
  t.c_n <- 0;
  let n = ref 0 in
  if t.d_n > 0 then begin
    t.s_flushes <- t.s_flushes + 1;
    (* Drain the dirty queue into the wave scratch, dropping removed
       flows. The queue is duplicate-free by the [f_state] byte. *)
    let ids = wave_scratch t t.d_n in
    for i = 0 to t.d_n - 1 do
      let id = t.d_arr.(i) in
      if Bytes.get t.f_state id = dirty then begin
        Bytes.set t.f_state id clean;
        ids.(!n) <- id;
        incr n
      end
    done;
    t.d_n <- 0;
    t.d_live <- 0
  end;
  (* The dirty queue is empty here, so no queue holds a removed id:
     they become reusable. *)
  t.free_n <- t.free_top;
  if !n > 0 then begin
    (* Queue order is itself a pure function of the mutation history
       (no hashing anywhere), so the wave runs in insertion order — a
       creation-order sort here cost ~20% of flush at population-wide
       wave sizes and bought no determinism. *)
    let c0 = t.c_n in
    run_wave t ~now t.w_arr !n;
    (* Ripple: a changed rate frees or claims capacity its link
       neighbours should see. Flows already processed this flush are
       settled; only outsiders re-enter, at the next flush.
       Deduplicate by link, and only links whose *total* allocation
       moved materially propagate — members swapping shares among
       themselves leave the residual outsiders see unchanged, so
       re-dirtying them would only churn. *)
    let processed = -t.wave in
    t.t_n <- 0;
    for i = c0 to t.c_n - 1 do
      let id = t.c_arr.(i) in
      let base = id * t.stride in
      for j = 0 to t.f_len.(id) - 1 do
        touch_link t t.f_path.(base + (2 * j))
      done
    done;
    for i = 0 to t.t_n - 1 do
      let li = t.t_arr.(i) in
      t.l_touched.(li) <- false;
      if Float.abs t.l_dalloc.(li) > eps *. t.l_cap.(li) then begin
        let members = t.l_members.(li) in
        for j = 0 to t.l_n.(li) - 1 do
          let m = members.(j) in
          if t.f_wave.(m) <> processed then mark_dirty t m
        done
      end;
      t.l_dalloc.(li) <- 0.
    done
  end;
  if Sim_engine.Sanitizer_mode.on then check_ids t;
  fire_changed t

(* Local pass: level just [flows] against the frozen rest and fire
   their callbacks. No ripple — the mutation that preceded this
   already queued the first-order neighbours for the next [flush];
   resetting the touched links' [l_dalloc] here keeps the flush-time
   ripple gate measuring only changes it has not yet seen. *)
let settle t ~now flows =
  let n = Array.length flows in
  if n > 0 then begin
    t.s_settles <- t.s_settles + 1;
    t.c_n <- 0;
    let ids = wave_scratch t n in
    for i = 0 to n - 1 do
      let id = flows.(i).id in
      if id < 0 then invalid_arg "Alloc.settle: removed flow";
      ids.(i) <- id
    done;
    run_wave t ~now ids n;
    for i = 0 to t.t_n - 1 do
      t.l_dalloc.(t.t_arr.(i)) <- 0.
    done;
    fire_changed t
  end

let pending_dirty t = t.d_live
let live_flows t = t.s_live
let flushes_run t = t.s_flushes
let waves_run t = t.s_waves
let settles_run t = t.s_settles
let heap_pops t = t.s_heap_pops

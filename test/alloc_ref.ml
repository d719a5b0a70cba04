(* Reference model for the differential property in test_fluid.ml:
   the record-based incremental max-min allocator that
   [Sim_fluid.Alloc] replaced with flat per-id arrays. Every flow is a
   record of its own (rate state in an all-float subrecord, path and
   slot back-index arrays, dirty/dead/wave/frozen fields), member
   lists hold the records, and the bottleneck heap swaps entries.
   [Alloc] must commit bit-identical rates and fire [on_rate] in the
   same sequence over any mutation history. Keep this file as it is:
   it is the behaviour being preserved, not code to optimise. *)

(* All-float: stored flat, mutated in place without boxing. *)
type fstate = {
  fs_weight : float;
  mutable fs_rate : float;  (* committed allocation, bps *)
  mutable fs_newrate : float;  (* water-filling scratch *)
}

type 'a flow = {
  f_data : 'a;
  f_owner : int;  (* callback grouping key, >= 0 *)
  f_st : fstate;
  f_path : int array;
  f_slots : int array;  (* index of this flow in each path link's members *)
  mutable f_dirty : bool;
  mutable f_dead : bool;
  (* water-filling scratch *)
  mutable f_wave : int;
  mutable f_stamp : int;
  mutable f_frozen : bool;
}

type 'a t = {
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
  l_members : 'a flow array array;
  l_n : int array;
  mutable stamp : int;  (* flush counter, ripple guard *)
  mutable wave : int;  (* wave counter, in-set membership *)
  (* dirty queue: append-only vector deduplicated by [f_dirty]; the
     wave/touched/changed vectors below are per-flush scratch. All
     reusable storage so steady-state flushes allocate next to
     nothing — at population-wide wave sizes list churn was a GC
     hotspot. *)
  mutable d_arr : 'a flow array;
  mutable d_n : int;
  mutable w_arr : 'a flow array;
  mutable w_n : int;
  mutable t_arr : int array;
  mutable t_n : int;
  mutable c_arr : 'a flow array;
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
    stamp = 0;
    wave = 0;
    d_arr = [||];
    d_n = 0;
    w_arr = [||];
    w_n = 0;
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

let data f = f.f_data
let rate f = f.f_st.fs_rate
let weight f = f.f_st.fs_weight
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

let mark_dirty t f =
  if (not f.f_dirty) && not f.f_dead then begin
    f.f_dirty <- true;
    if t.d_n = Array.length t.d_arr then begin
      let bigger = Array.make (max 16 (2 * t.d_n)) f in
      Array.blit t.d_arr 0 bigger 0 t.d_n;
      t.d_arr <- bigger
    end;
    t.d_arr.(t.d_n) <- f;
    t.d_n <- t.d_n + 1
  end

let mark_members_dirty t li =
  let members = t.l_members.(li) in
  for j = 0 to t.l_n.(li) - 1 do
    mark_dirty t members.(j)
  done

let push_member t li f =
  let n = t.l_n.(li) in
  if n = Array.length t.l_members.(li) then begin
    let bigger = Array.make (max 4 (2 * n)) f in
    Array.blit t.l_members.(li) 0 bigger 0 n;
    t.l_members.(li) <- bigger
  end;
  t.l_members.(li).(n) <- f;
  t.l_n.(li) <- n + 1;
  n

(* Swap-remove member at [slot]; the displaced flow's back-index for
   [link_idx] is patched by scanning its (short) path. *)
let remove_member t ~link_idx ~slot =
  let last = t.l_n.(link_idx) - 1 in
  if slot <> last then begin
    let moved = t.l_members.(link_idx).(last) in
    t.l_members.(link_idx).(slot) <- moved;
    let path = moved.f_path in
    let j = ref 0 in
    while
      !j < Array.length path
      && not (path.(!j) = link_idx && moved.f_slots.(!j) = last)
    do
      incr j
    done;
    if !j < Array.length path then moved.f_slots.(!j) <- slot
  end;
  t.l_n.(link_idx) <- last

let add t ~owner ~weight ~path ~data =
  if weight <= 0. then invalid_arg "Alloc.add: weight must be positive";
  if owner < 0 then invalid_arg "Alloc.add: negative owner";
  if owner >= Array.length t.o_last then begin
    let bigger = Array.make (max (owner + 1) (2 * Array.length t.o_last)) 0 in
    Array.blit t.o_last 0 bigger 0 (Array.length t.o_last);
    t.o_last <- bigger
  end;
  let f =
    {
      f_data = data;
      f_owner = owner;
      f_st = { fs_weight = weight; fs_rate = 0.; fs_newrate = 0. };
      f_path = Array.copy path;
      f_slots = Array.make (Array.length path) 0;
      f_dirty = false;
      f_dead = false;
      f_wave = 0;
      f_stamp = 0;
      f_frozen = false;
    }
  in
  if Array.length f.f_path = 0 then f.f_st.fs_rate <- unconstrained_rate
  else begin
    t.s_live <- t.s_live + 1;
    let path = f.f_path in
    for j = 0 to Array.length path - 1 do
      let li = path.(j) in
      f.f_slots.(j) <- push_member t li f;
      mark_members_dirty t li
    done;
    mark_dirty t f
  end;
  f

let remove t ~now f =
  if not f.f_dead then begin
    f.f_dead <- true;
    let path = f.f_path in
    if Array.length path > 0 then t.s_live <- t.s_live - 1;
    for j = 0 to Array.length path - 1 do
      let li = path.(j) in
      remove_member t ~link_idx:li ~slot:f.f_slots.(j);
      advance_integral t li ~now;
      t.l_alloc.(li) <- t.l_alloc.(li) -. f.f_st.fs_rate;
      mark_members_dirty t li
    done;
    f.f_st.fs_rate <- 0.
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
let link_level t li =
  if t.l_wsum.(li) > tiny then
    Float.max 0. t.l_residual.(li) /. t.l_wsum.(li)
  else infinity

let heap_less t i j =
  t.h_lvl.(i) < t.h_lvl.(j)
  || (t.h_lvl.(i) = t.h_lvl.(j) && t.h_li.(i) < t.h_li.(j))

let heap_swap t i j =
  let lvl = t.h_lvl.(i) and li = t.h_li.(i) in
  t.h_lvl.(i) <- t.h_lvl.(j);
  t.h_li.(i) <- t.h_li.(j);
  t.h_lvl.(j) <- lvl;
  t.h_li.(j) <- li

let heap_push t lvl li =
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
  let i = ref (t.h_n - 1) in
  while !i > 0 && heap_less t !i ((!i - 1) / 2) do
    heap_swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

(* Pops the min entry into (h_lvl.(h_n), h_li.(h_n)) — read it right
   after the call; the slot is reused by the next push. *)
let heap_pop t =
  t.s_heap_pops <- t.s_heap_pops + 1;
  heap_swap t 0 (t.h_n - 1);
  t.h_n <- t.h_n - 1;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < t.h_n && heap_less t l !m then m := l;
    if r < t.h_n && heap_less t r !m then m := r;
    if !m = !i then continue := false
    else begin
      heap_swap t !i !m;
      i := !m
    end
  done

let touch_link t li =
  if not t.l_touched.(li) then begin
    t.l_touched.(li) <- true;
    if t.t_n = Array.length t.t_arr then begin
      let bigger = Array.make (2 * t.t_n) 0 in
      Array.blit t.t_arr 0 bigger 0 t.t_n;
      t.t_arr <- bigger
    end;
    t.t_arr.(t.t_n) <- li;
    t.t_n <- t.t_n + 1
  end

let push_changed t f =
  if t.c_n = Array.length t.c_arr then begin
    let bigger = Array.make (max 16 (2 * t.c_n)) f in
    Array.blit t.c_arr 0 bigger 0 t.c_n;
    t.c_arr <- bigger
  end;
  t.c_arr.(t.c_n) <- f;
  t.o_last.(f.f_owner) <- t.c_n;
  t.c_n <- t.c_n + 1

(* Callbacks last, after every rate of the pass is committed, so a
   callback reading a sibling flow sees final values: once per owner,
   at the position of its last changed flow. That position is where
   the last of the per-flow callbacks an owner would otherwise get
   lands, so callbacks that act on the owner as a whole run in the
   same relative order either way. *)
let fire_changed t =
  for i = 0 to t.c_n - 1 do
    let f = t.c_arr.(i) in
    if t.o_last.(f.f_owner) = i then t.on_rate f
  done

(* One wave: water-fill the [n]-prefix of [flows] (all alive) against
   the rest of the population frozen at its committed rates. Appends
   the flows whose committed rate materially changed to [t.c_arr]
   (queue order).

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
let run_wave t ~now flows n =
  t.s_waves <- t.s_waves + 1;
  t.wave <- t.wave + 1;
  let wave = t.wave in
  for i = 0 to n - 1 do
    let f = flows.(i) in
    f.f_wave <- wave;
    f.f_stamp <- t.stamp;
    f.f_frozen <- false;
    f.f_st.fs_newrate <- f.f_st.fs_rate
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
    let f = flows.(i) in
    let path = f.f_path in
    for j = 0 to Array.length path - 1 do
      let li = path.(j) in
      if not t.l_touched.(li) then begin
        touch_link t li;
        t.l_residual.(li) <- t.l_avail.(li) -. t.l_alloc.(li);
        t.l_wsum.(li) <- 0.
      end;
      t.l_residual.(li) <- t.l_residual.(li) +. f.f_st.fs_rate;
      t.l_wsum.(li) <- t.l_wsum.(li) +. f.f_st.fs_weight
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
        let f = members.(j) in
        if f.f_wave = wave && not f.f_frozen then begin
          f.f_frozen <- true;
          decr unfrozen;
          let nr = f.f_st.fs_weight *. lvl in
          f.f_st.fs_newrate <- nr;
          let path = f.f_path in
          for p = 0 to Array.length path - 1 do
            let li' = path.(p) in
            t.l_residual.(li') <- t.l_residual.(li') -. nr;
            t.l_wsum.(li') <- t.l_wsum.(li') -. f.f_st.fs_weight
          done
        end
      done
    end
  done;
  (* Numerical corner: weight sums cancelled to ~0 with flows still
     unfrozen. Freeze the stragglers at their per-path bottleneck
     share and stop. *)
  if !unfrozen > 0 then
    for i = 0 to n - 1 do
      let f = flows.(i) in
      if not f.f_frozen then begin
        let share = ref infinity in
        Array.iter
          (fun li ->
            share :=
              Float.min !share
                (Float.max 0. t.l_residual.(li)
                /. Float.max f.f_st.fs_weight tiny))
          f.f_path;
        f.f_st.fs_newrate <-
          (if !share = infinity then unconstrained_rate
           else f.f_st.fs_weight *. !share);
        f.f_frozen <- true;
        decr unfrozen
      end
    done;
  for i = 0 to t.t_n - 1 do
    t.l_touched.(t.t_arr.(i)) <- false
  done;
  (* Commit: update link sums and report materially-changed rates. *)
  for i = 0 to n - 1 do
    let f = flows.(i) in
    let nr = f.f_st.fs_newrate and old = f.f_st.fs_rate in
    if Float.abs (nr -. old) > eps *. Float.max 1. (Float.max nr old)
    then begin
      let path = f.f_path in
      for p = 0 to Array.length path - 1 do
        let li = path.(p) in
        advance_integral t li ~now;
        t.l_alloc.(li) <- t.l_alloc.(li) -. old +. nr;
        t.l_dalloc.(li) <- t.l_dalloc.(li) -. old +. nr
      done;
      f.f_st.fs_rate <- nr;
      push_changed t f
    end
  done

let flush t ~now =
  t.stamp <- t.stamp + 1;
  t.c_n <- 0;
  if t.d_n > 0 then begin
    t.s_flushes <- t.s_flushes + 1;
    (* Drain the dirty queue into the wave scratch: drop dead flows,
       sort by id. The queue is duplicate-free by the [f_dirty] flag. *)
    t.w_n <- 0;
    for i = 0 to t.d_n - 1 do
      let f = t.d_arr.(i) in
      f.f_dirty <- false;
      if not f.f_dead then begin
        if t.w_n = Array.length t.w_arr then begin
          let bigger = Array.make (max 16 (2 * t.w_n)) f in
          Array.blit t.w_arr 0 bigger 0 t.w_n;
          t.w_arr <- bigger
        end;
        t.w_arr.(t.w_n) <- f;
        t.w_n <- t.w_n + 1
      end
    done;
    t.d_n <- 0;
    if t.w_n > 0 then begin
      (* Queue order is itself a pure function of the mutation
         history (no hashing anywhere), so the wave runs in insertion
         order — a creation-order sort here cost ~20% of flush at
         population-wide wave sizes and bought no determinism. *)
      let c0 = t.c_n in
      run_wave t ~now t.w_arr t.w_n;
      (* Ripple: a changed rate frees or claims capacity its link
         neighbours should see. Flows already processed this flush are
         settled; only outsiders re-enter, at the next flush.
         Deduplicate by link, and only links whose *total* allocation
         moved materially propagate — members swapping shares among
         themselves leave the residual outsiders see unchanged, so
         re-dirtying them would only churn. *)
      t.t_n <- 0;
      for i = c0 to t.c_n - 1 do
        let path = t.c_arr.(i).f_path in
        for j = 0 to Array.length path - 1 do
          touch_link t path.(j)
        done
      done;
      for i = 0 to t.t_n - 1 do
        let li = t.t_arr.(i) in
        t.l_touched.(li) <- false;
        if Float.abs t.l_dalloc.(li) > eps *. t.l_cap.(li) then begin
          let members = t.l_members.(li) in
          for j = 0 to t.l_n.(li) - 1 do
            let m = members.(j) in
            if m.f_stamp <> t.stamp then mark_dirty t m
          done
        end;
        t.l_dalloc.(li) <- 0.
      done
    end
  end;
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
    t.stamp <- t.stamp + 1;
    t.c_n <- 0;
    run_wave t ~now flows n;
    for i = 0 to t.t_n - 1 do
      t.l_dalloc.(t.t_arr.(i)) <- 0.
    done;
    fire_changed t
  end

let pending_dirty t =
  let n = ref 0 in
  for i = 0 to t.d_n - 1 do
    if not t.d_arr.(i).f_dead then incr n
  done;
  !n

let live_flows t = t.s_live
let flushes_run t = t.s_flushes
let waves_run t = t.s_waves
let settles_run t = t.s_settles
let heap_pops t = t.s_heap_pops

(* A fixed calibration workload that shares no code with the
   simulator: a binary-heap event queue of small records, a hash table
   and a balanced map, churned together, allocating like a
   discrete-event simulation does.

   On a shared 2-vCPU VM the same simulation's host time drifts by up
   to 80% between 30 s windows while its work repeats exactly. A
   reference child runs between consecutive simulation children, and
   the benchmark reports host times scaled by [nominal_s / reference
   time]: seconds at the speed the host had when [nominal_s] was
   measured. A change to the simulator cannot move the reference. *)

module Int_map = Map.Make (Int)

type ev = { at : int; id : int; mutable payload : float }

(* The reference's time on a 2 GHz Xeon VM in a quiet period. *)
let nominal_s = 0.25

let heap_push h n e =
  let h = if !n = Array.length !h then Array.append !h (Array.make !n e) else !h in
  let i = ref !n in
  incr n;
  while !i > 0 && h.((!i - 1) / 2).at > e.at do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- e;
  h

let heap_pop h n =
  let top = h.(0) in
  decr n;
  let last = h.(!n) in
  let i = ref 0 and fin = ref (!n = 0) in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= !n then fin := true
    else begin
      let c = if l + 1 < !n && h.(l + 1).at < h.(l).at then l + 1 else l in
      if h.(c).at < last.at then begin
        h.(!i) <- h.(c);
        i := c
      end
      else fin := true
    end
  done;
  if !n > 0 then h.(!i) <- last;
  top

let work () =
  let dummy = { at = 0; id = 0; payload = 0. } in
  let h = ref (Array.make 1024 dummy) and n = ref 0 in
  let tbl = Hashtbl.create 1024 in
  let map = ref Int_map.empty in
  let x = ref 12345 in
  let next () =
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    !x
  in
  for i = 1 to 4096 do
    h := heap_push h n { at = next () land 0xFFFFF; id = i; payload = 0. }
  done;
  for i = 1 to 300_000 do
    let e = heap_pop !h n in
    e.payload <- e.payload +. 1.;
    Hashtbl.replace tbl (e.id land 8191) e;
    if i land 3 = 0 then map := Int_map.add (next () land 0x3FFFF) e.id !map;
    if i land 7 = 0 then map := Int_map.remove (next () land 0x3FFFF) !map;
    h := heap_push h n { at = e.at + 1 + (next () land 0xFFF); id = i; payload = e.payload }
  done;
  Sys.opaque_identity (Hashtbl.length tbl + Int_map.cardinal !map + !n)

(* Host seconds of one pass of [work]. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (work ());
  Unix.gettimeofday () -. t0

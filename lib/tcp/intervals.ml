(* A sorted set of disjoint, non-adjacent [start, stop) ranges. The
   receive path keeps the prefix merged into the head range, so sets
   stay short (bounded by the number of concurrent reorder holes).

   The head range lives in two mutable int fields rather than at the
   front of the list: the overwhelmingly common add — an in-order
   segment extending the merged prefix — then mutates [hi] in place
   instead of rebuilding a cons + tuple per segment (the receive path
   does one add per data segment, so this was a per-segment
   allocation). [rest] holds the spans strictly after the head; the
   set is empty iff [hi <= lo], and [rest] is non-empty only when a
   head exists (the head is always the first span). *)

type t = {
  mutable lo : int;  (* head span [lo, hi); empty set iff hi <= lo *)
  mutable hi : int;
  mutable rest : (int * int) list;  (* spans after the head; sorted, disjoint, non-adjacent *)
}

let create () = { lo = 0; hi = 0; rest = [] }

let has_head t = t.hi > t.lo

let to_spans t = if has_head t then (t.lo, t.hi) :: t.rest else t.rest

let set_spans t = function
  | [] ->
    t.lo <- 0;
    t.hi <- 0;
    t.rest <- []
  | (s, e) :: rest ->
    t.lo <- s;
    t.hi <- e;
    t.rest <- rest

(* General insert: walk the spans, accumulating ranges before the
   insertion point, merging every range that overlaps or touches
   [start, stop). Only reached on out-of-order arrivals and
   hole-filling retransmissions. *)
let add_slow t ~start ~stop =
  let rec go acc s e covered = function
    | [] -> (List.rev ((s, e) :: acc), covered)
    | (rs, re) :: rest ->
      if re < s then go ((rs, re) :: acc) s e covered rest
      else if rs > e then (List.rev_append acc ((s, e) :: (rs, re) :: rest), covered)
      else begin
        (* Overlap or adjacency: merge, and count the overlap. *)
        let overlap = Int.max 0 (Int.min e re - Int.max s rs) in
        go acc (Int.min s rs) (Int.max e re) (covered + overlap) rest
      end
  in
  let spans, covered = go [] start stop 0 (to_spans t) in
  let added = stop - start - covered in
  set_spans t spans;
  added

let add t ~start ~stop =
  if stop < start then invalid_arg "Intervals.add: stop < start";
  if stop = start then 0
  else if not (has_head t) then begin
    (* First span: becomes the head. *)
    t.lo <- start;
    t.hi <- stop;
    stop - start
  end
  else if t.lo <= start && start <= t.hi then
    (* Overlaps or touches the head. Extend it in place unless the new
       range reaches the next span (then the two must merge). *)
    if stop <= t.hi then 0
    else begin
      match t.rest with
      | (ns, _) :: _ when stop >= ns -> add_slow t ~start ~stop
      | _ ->
        let added = stop - t.hi in
        t.hi <- stop;
        added
    end
  else add_slow t ~start ~stop

(* A top-level function, not a local closure over [x]: this runs once
   per data segment. *)
let rec contiguous_in (x : int) = function
  | [] -> x
  | (s, e) :: rest ->
    if s <= x && x < e then e
    else if s > x then x
    else contiguous_in x rest

let contiguous_from t x =
  if not (has_head t) || x < t.lo then x
  else if x < t.hi then t.hi (* non-adjacency: coverage stops at the head's end *)
  else contiguous_in x t.rest

let span_count t = (if has_head t then 1 else 0) + List.length t.rest

let fill_above t ~above ~max_blocks ~dst =
  let rec go i = function
    | [] -> i
    | (s, e) :: rest ->
      if i >= max_blocks then i
      else if s > above then begin
        dst.(2 * i) <- s;
        dst.((2 * i) + 1) <- e;
        go (i + 1) rest
      end
      else go i rest
  in
  let i =
    if has_head t && max_blocks > 0 && t.lo > above then begin
      dst.(0) <- t.lo;
      dst.(1) <- t.hi;
      1
    end
    else 0
  in
  go i t.rest

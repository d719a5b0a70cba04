type t = {
  lo : float;
  hi : float;
  buckets : int;
  counts : int array;  (* buckets + 1, last = overflow *)
  mutable total : int;
}

let create ~lo ~hi ~buckets =
  if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; buckets; counts = Array.make (buckets + 1) 0; total = 0 }

let add t v =
  let i =
    if v >= t.hi then t.buckets
    else if v < t.lo then 0
    else begin
      let w = (t.hi -. t.lo) /. float_of_int t.buckets in
      min (t.buckets - 1) (int_of_float ((v -. t.lo) /. w))
    end
  in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total
let bucket_counts t = Array.copy t.counts
let overflow t = t.counts.(t.buckets)

let merge a b =
  if a.lo <> b.lo || a.hi <> b.hi || a.buckets <> b.buckets then
    invalid_arg "Histogram.merge: mismatched bucket layout";
  let t = create ~lo:a.lo ~hi:a.hi ~buckets:a.buckets in
  for i = 0 to a.buckets do
    t.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  t.total <- a.total + b.total;
  t

let bucket_bounds t i =
  if i < 0 || i > t.buckets then invalid_arg "Histogram.bucket_bounds";
  if i = t.buckets then (t.hi, infinity)
  else begin
    let w = (t.hi -. t.lo) /. float_of_int t.buckets in
    (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))
  end

let render t =
  let buf = Buffer.create 256 in
  let maxc = Array.fold_left max 1 t.counts in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = bucket_bounds t i in
        let bar = String.make (max 1 (c * 50 / maxc)) '#' in
        if i = t.buckets then
          Buffer.add_string buf (Printf.sprintf "%10.1f+      %6d %s\n" lo c bar)
        else
          Buffer.add_string buf
            (Printf.sprintf "%10.1f-%-10.1f %6d %s\n" lo hi c bar)
      end)
    t.counts;
  Buffer.contents buf

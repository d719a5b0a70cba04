type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean a =
  if Array.length a = 0 then invalid_arg "Summary.mean: empty";
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if q < 0. || q > 100. then invalid_arg "Summary.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let of_array a =
  if Array.length a = 0 then invalid_arg "Summary.of_array: empty";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  {
    n = Array.length a;
    mean = mean a;
    stddev = stddev a;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    p50 = percentile sorted 50.;
    p90 = percentile sorted 90.;
    p99 = percentile sorted 99.;
  }

let of_list l = of_array (Array.of_list l)

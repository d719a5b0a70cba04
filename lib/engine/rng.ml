(* The 64-bit SplitMix state is kept as two 32-bit halves in int
   fields: a [mutable state : int64] field would box a fresh [Int64] on
   every draw, and an 8-byte [Bytes] costs a C call to create (one per
   link at set-up). With [state], [mix64], [bits64] and [float]
   inlined, a draw consumed as an int or a float allocates nothing. *)
type t = { mutable hi : int; mutable lo : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] state t =
  Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let[@inline] set_state t s =
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int s land 0xFFFF_FFFF

let of_state s =
  let t = { hi = 0; lo = 0 } in
  set_state t s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the top bits; modulo bias is negligible for simulation bounds
     (bound << 2^62) but we mask to non-negative first. *)
  let v = Int64.to_int (bits64 t) land max_int in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = ref (float t 1.0) in
  while !u = 0. do u := float t 1.0 done;
  -.mean *. log !u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let derangement t n =
  if n <= 0 then invalid_arg "Rng.derangement: n must be positive";
  if n = 1 then [| 0 |]
  else begin
    let a = Array.init n (fun i -> i) in
    (* Rejection sampling: shuffle until no fixed point. Expected number
       of attempts converges to e ~ 2.72, independent of n. *)
    let ok () =
      let good = ref true in
      for i = 0 to n - 1 do
        if a.(i) = i then good := false
      done;
      !good
    in
    shuffle t a;
    while not (ok ()) do
      shuffle t a
    done;
    a
  end

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

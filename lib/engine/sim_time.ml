(* Nanoseconds since simulation start, as a native int. A 63-bit int
   holds ~146 years of nanoseconds, and unlike [int64] it is unboxed:
   time values in records and scheduler entries are immediate words,
   and arithmetic in the event hot path allocates nothing. *)

type t = int

let zero = 0
let is_zero t = t = 0

let of_ns n =
  if n < 0 then invalid_arg "Sim_time.of_ns: negative";
  n

let of_us f =
  if f < 0. then invalid_arg "Sim_time.of_us: negative";
  int_of_float (f *. 1e3)

let of_ms f =
  if f < 0. then invalid_arg "Sim_time.of_ms: negative";
  int_of_float (f *. 1e6)

let of_sec f =
  if f < 0. then invalid_arg "Sim_time.of_sec: negative";
  int_of_float (f *. 1e9)

let to_ns t = t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let add = ( + )

let diff a b =
  if b > a then invalid_arg "Sim_time.diff: negative result";
  a - b

(* Inlined so a caller's float factor is not boxed for the call. *)
let[@inline] scale t f =
  if f < 0. then invalid_arg "Sim_time.scale: negative factor";
  int_of_float (float_of_int t *. f)

let compare = Int.compare
let equal : t -> t -> bool = Int.equal
let ( < ) : t -> t -> bool = Stdlib.( < )
let ( <= ) : t -> t -> bool = Stdlib.( <= )
let ( > ) : t -> t -> bool = Stdlib.( > )
let ( >= ) : t -> t -> bool = Stdlib.( >= )
let min = Int.min
let max = Int.max

let to_string t =
  let ns = float_of_int t in
  if Stdlib.( < ) ns 1e3 then Printf.sprintf "%.0fns" ns
  else if Stdlib.( < ) ns 1e6 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else if Stdlib.( < ) ns 1e9 then Printf.sprintf "%.3fms" (ns /. 1e6)
  else Printf.sprintf "%.4fs" (ns /. 1e9)

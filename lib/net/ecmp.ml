(* SplitMix64-style finaliser over the packed 5-tuple. Cheap, and good
   enough avalanche behaviour that per-switch salts decorrelate.
   Inlined, so its [Int64] intermediates stay in registers: a call
   would box its result on every hop of every packet. *)

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash_fields ~src ~dst ~sport ~dport ~salt =
  let open Int64 in
  let a = of_int ((src lsl 20) lxor dst) in
  let b = of_int ((sport lsl 16) lxor dport) in
  let h = mix64 (logxor (mix64 a) (add b (mul (of_int salt) 0x9E3779B97F4A7C15L))) in
  Int64.to_int h land Stdlib.max_int

let flow_hash (p : Packet.t) =
  hash_fields ~src:(Addr.to_int p.src) ~dst:(Addr.to_int p.dst)
    ~sport:p.src_port ~dport:p.dst_port ~salt:0

let select (p : Packet.t) ~salt ~n =
  if n <= 0 then invalid_arg "Ecmp.select: n must be positive";
  hash_fields ~src:(Addr.to_int p.src) ~dst:(Addr.to_int p.dst)
    ~sport:p.src_port ~dport:p.dst_port ~salt
  mod n

let pick p ~salt choices =
  match Array.length choices with
  | 1 -> choices.(0)
  | n -> choices.(select p ~salt ~n)

type t = int

let of_int i =
  if i < 0 then invalid_arg "Addr.of_int: negative";
  i

let to_int t = t
let equal = Int.equal

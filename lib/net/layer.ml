type t = Host_layer | Edge_layer | Agg_layer | Core_layer

let to_string = function
  | Host_layer -> "host"
  | Edge_layer -> "edge"
  | Agg_layer -> "agg"
  | Core_layer -> "core"

let equal a b = a = b

type dupack_strategy =
  | Static of int
  | Topology_aware
  | Adaptive of { initial : int; cap : int }

type switch_strategy =
  | Data_volume of int
  | Congestion_event
  | Never

type t = {
  subflows : int;
  switch : switch_strategy;
  dupack : dupack_strategy;
}

let default =
  { subflows = 8; switch = Data_volume 100_000; dupack = Topology_aware }

let switch_to_string = function
  | Data_volume v -> Printf.sprintf "data-volume(%dB)" v
  | Congestion_event -> "congestion-event"
  | Never -> "never"

let dupack_to_string = function
  | Static k -> Printf.sprintf "static(%d)" k
  | Topology_aware -> "topology-aware"
  | Adaptive { initial; cap } -> Printf.sprintf "adaptive(%d..%d)" initial cap

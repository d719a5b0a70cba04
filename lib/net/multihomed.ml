type params = Fattree.params = {
  k : int;
  oversub : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

let default_params = Fattree.default_params
let host_count = Fattree.host_count

let validate p =
  if p.k < 4 || p.k mod 2 <> 0 then
    invalid_arg "Multihomed: k must be even and >= 4";
  if p.oversub < 1 then invalid_arg "Multihomed: oversub must be >= 1"

let create ~sched p =
  validate p;
  Fattree.build ~sched p ~homes:2
    ~name:(Printf.sprintf "multihomed-k%d-oversub%d" p.k p.oversub)

type params = {
  k : int;
  oversub : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

let default_params ?(k = 4) ?(oversub = 4) () =
  {
    k;
    oversub;
    host_spec = Topology.default_link_spec;
    fabric_spec = Topology.default_link_spec;
  }

let validate p =
  if p.k < 2 || p.k mod 2 <> 0 then
    invalid_arg "Fattree: k must be even and >= 2";
  if p.oversub < 1 then invalid_arg "Fattree: oversub must be >= 1"

let hosts_per_edge p = p.k / 2 * p.oversub
let hosts_per_pod p = p.k / 2 * hosts_per_edge p
let host_count p = p.k * hosts_per_pod p

let build ~sched p ~homes ~name =
  let n_hosts = host_count p in
  let open Topology in
  let b = Builder.create sched in
  let half = p.k / 2 in
  let pods = p.k in
  let hpe = hosts_per_edge p in
  let hosts =
    Array.init n_hosts (fun i -> Host.create ~sched ~addr:(Addr.of_int i))
  in
  (* One destination class per (pod, home edge), [pod * half + e]
     (= host / hpe), the slot being the host's index under it. *)
  let dests = Switch.dests ~hosts:n_hosts ~size:hpe in
  (* Switch ids are globally unique so ECMP salts differ per switch. *)
  let next_sw = ref 0 in
  let fresh_switch () =
    let sw = Switch.create ~id:!next_sw ~dests in
    incr next_sw;
    sw
  in
  let edge = Array.init pods (fun _ -> Array.init half (fun _ -> fresh_switch ())) in
  let agg = Array.init pods (fun _ -> Array.init half (fun _ -> fresh_switch ())) in
  let core = Array.init (half * half) (fun _ -> fresh_switch ()) in

  (* Host <-> edge links: NIC j of host h goes to edge (e + j) mod
     half of its pod, e being its home edge, and host_down.(h * homes
     + j) comes back from it. Link ids seed link jitter, so make_link
     call order is fixed: down before up on the single-homed tree, up
     before down on the dual-homed one. *)
  let down_first = homes = 1 in
  let host_down =
    Array.init (n_hosts * homes) (fun i ->
        let h = i / homes in
        let first =
          Builder.make_link b ~spec:p.host_spec
            ~layer:(if down_first then Layer.Edge_layer else Layer.Host_layer)
        in
        let second =
          Builder.make_link b ~spec:p.host_spec
            ~layer:(if down_first then Layer.Host_layer else Layer.Edge_layer)
        in
        let down = if down_first then first else second in
        let up = if down_first then second else first in
        Builder.to_host down hosts.(h);
        Builder.to_switch up
          edge.(h / hosts_per_pod p).(((h / hpe) + (i mod homes)) mod half);
        Host.add_nic hosts.(h) up;
        down)
  in
  (* Edge <-> agg links (within each pod, full bipartite). *)
  let edge_up = (* edge_up.(pod).(e).(a) : edge e -> agg a *)
    Array.init pods (fun pd ->
        Array.init half (fun e ->
            Array.init half (fun a ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Edge_layer in
                Builder.to_switch l agg.(pd).(a);
                ignore e;
                l)))
  in
  let agg_down = (* agg_down.(pod).(a).(e) : agg a -> edge e *)
    Array.init pods (fun pd ->
        Array.init half (fun a ->
            Array.init half (fun e ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
                Builder.to_switch l edge.(pd).(e);
                ignore a;
                l)))
  in
  (* Agg <-> core links. Core c = a * half + m connects to agg a of
     every pod; agg (pd, a) uplink m goes to core a*half + m. *)
  let agg_up = (* agg_up.(pod).(a).(m) : agg -> core (a*half + m) *)
    Array.init pods (fun pd ->
        Array.init half (fun a ->
            Array.init half (fun m ->
                let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
                Builder.to_switch l core.((a * half) + m);
                ignore pd;
                l)))
  in
  let core_down = (* core_down.(c).(pod) : core -> agg (c / half) of pod *)
    Array.init (half * half) (fun c ->
        Array.init pods (fun pd ->
            let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Core_layer in
            Builder.to_switch l agg.(pd).(c / half);
            l))
  in

  (* Routing: every edge a class is homed to holds it as local; an agg
     hashes over the same edges. Other upward groups hash too; the
     core's downward hop is a single link. Class [pd * half + e] is
     the pod-[pd] hosts homed to edge [e]. *)
  let classes = pods * half in
  for pd = 0 to pods - 1 do
    for e = 0 to half - 1 do
      let sw = edge.(pd).(e) in
      let table = Array.make classes (Switch.group sw edge_up.(pd).(e)) in
      (* Over NIC j, the hosts homed to edge e - j. *)
      for j = 0 to homes - 1 do
        let c = (pd * half) + ((e - j + half) mod half) in
        table.(c) <-
          Switch.Local (Array.init hpe (fun i -> host_down.((((c * hpe) + i) * homes) + j)))
      done;
      Switch.set_table sw table
    done;
    for a = 0 to half - 1 do
      let sw = agg.(pd).(a) in
      let table = Array.make classes (Switch.group sw agg_up.(pd).(a)) in
      for e = 0 to half - 1 do
        table.((pd * half) + e) <-
          Switch.group ~salt:(Switch.id sw + 7919) sw
            (Array.init homes (fun j -> agg_down.(pd).(a).((e + j) mod half)))
      done;
      Switch.set_table sw table
    done
  done;
  Array.iteri
    (fun c sw ->
      let down = Array.map (fun l -> Switch.group sw [| l |]) core_down.(c) in
      let table = Array.make classes down.(0) in
      Array.iteri (fun pd g -> Array.fill table (pd * half) half g) down;
      Switch.set_table sw table)
    core;

  Builder.finish b ~name ~hosts
    ~switches:
      (Array.concat
         [ Array.concat (Array.to_list edge); Array.concat (Array.to_list agg); core ])
    ~dests

let create ~sched p =
  validate p;
  build ~sched p ~homes:1
    ~name:(Printf.sprintf "fattree-k%d-oversub%d" p.k p.oversub)

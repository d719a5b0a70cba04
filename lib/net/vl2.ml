type params = {
  aggs : int;
  intermediates : int;
  tors : int;
  hosts_per_tor : int;
  host_spec : Topology.link_spec;
  fabric_spec : Topology.link_spec;
}

let default_params ?(tors = 16) ?(hosts_per_tor = 4) () =
  {
    aggs = 4;
    intermediates = 4;
    tors;
    hosts_per_tor;
    host_spec = Topology.default_link_spec;
    fabric_spec = Topology.default_link_spec;
  }

let validate p =
  if p.aggs < 2 then invalid_arg "Vl2: need >= 2 aggregation switches";
  if p.intermediates < 1 then invalid_arg "Vl2: need >= 1 intermediate switch";
  if p.tors < 2 then invalid_arg "Vl2: need >= 2 ToRs";
  if p.hosts_per_tor < 1 then invalid_arg "Vl2: need >= 1 host per ToR"

let host_count p = p.tors * p.hosts_per_tor

(* The two aggregation switches a ToR is homed to. *)
let aggs_of_tor p tor = (tor mod p.aggs, (tor + 1) mod p.aggs)

let create ~sched p =
  validate p;
  let n_hosts = host_count p in
  let open Topology in
  let b = Builder.create sched in
  let hosts =
    Array.init n_hosts (fun i -> Host.create ~sched ~addr:(Addr.of_int i))
  in
  (* One destination class per ToR. *)
  let dests = Switch.dests ~hosts:n_hosts ~size:p.hosts_per_tor in
  let next_sw = ref 0 in
  let fresh_switch () =
    let sw = Switch.create ~id:!next_sw ~dests in
    incr next_sw;
    sw
  in
  let tor = Array.init p.tors (fun _ -> fresh_switch ()) in
  let agg = Array.init p.aggs (fun _ -> fresh_switch ()) in
  let inter = Array.init p.intermediates (fun _ -> fresh_switch ()) in

  (* Host <-> ToR. *)
  let tor_down =
    Array.init p.tors (fun t ->
        Array.init p.hosts_per_tor (fun i ->
            let h = (t * p.hosts_per_tor) + i in
            let down = Builder.make_link b ~spec:p.host_spec ~layer:Layer.Edge_layer in
            Builder.to_host down hosts.(h);
            let up = Builder.make_link b ~spec:p.host_spec ~layer:Layer.Host_layer in
            Builder.to_switch up tor.(t);
            Host.add_nic hosts.(h) up;
            down))
  in
  (* ToR <-> its two aggs ([validate] keeps them distinct). *)
  let tor_up =
    Array.init p.tors (fun t ->
        let a1, a2 = aggs_of_tor p t in
        Array.map
          (fun a ->
            let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Edge_layer in
            Builder.to_switch l agg.(a);
            l)
          [| a1; a2 |])
  in
  let agg_down = (* agg_down.(a).(t) : agg a -> ToR t, if homed there *)
    Array.make_matrix p.aggs p.tors None
  in
  Array.iteri
    (fun t sw ->
      let a1, a2 = aggs_of_tor p t in
      List.iter
        (fun a ->
          let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
          Builder.to_switch l sw;
          agg_down.(a).(t) <- Some l)
        [ a1; a2 ])
    tor;
  (* Agg <-> intermediates: complete bipartite. *)
  let agg_up =
    Array.init p.aggs (fun _a ->
        Array.init p.intermediates (fun i ->
            let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Agg_layer in
            Builder.to_switch l inter.(i);
            l))
  in
  let inter_down =
    Array.init p.intermediates (fun _i ->
        Array.init p.aggs (fun a ->
            let l = Builder.make_link b ~spec:p.fabric_spec ~layer:Layer.Core_layer in
            Builder.to_switch l agg.(a);
            l))
  in

  (* Routing. An agg homed to the destination ToR goes straight down;
     any other bounces off an intermediate, which hashes over the
     destination ToR's two aggs. *)
  Array.iteri
    (fun t sw ->
      let local = Switch.Local tor_down.(t) in
      let up = Switch.group sw tor_up.(t) in
      Switch.set_table sw (Array.init p.tors (fun c -> if c = t then local else up)))
    tor;
  Array.iteri
    (fun a sw ->
      let up = Switch.group sw agg_up.(a) in
      Switch.set_table sw
        (Array.map
           (function Some l -> Switch.group sw [| l |] | None -> up)
           agg_down.(a)))
    agg;
  Array.iteri
    (fun i sw ->
      Switch.set_table sw
        (Array.init p.tors (fun t ->
             let a1, a2 = aggs_of_tor p t in
             Switch.group ~salt:(Switch.id sw + 31) sw
               [| inter_down.(i).(a1); inter_down.(i).(a2) |])))
    inter;

  Builder.finish b
    ~name:(Printf.sprintf "vl2-a%d-i%d-t%d" p.aggs p.intermediates p.tors)
    ~hosts
    ~switches:(Array.concat [ tor; agg; inter ])
    ~dests

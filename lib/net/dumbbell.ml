module Builder = Topology.Builder

let direct ~sched ?(spec = Topology.default_link_spec) () =
  let b = Builder.create sched in
  let h0 = Host.create ~sched ~addr:(Addr.of_int 0) in
  let h1 = Host.create ~sched ~addr:(Addr.of_int 1) in
  let l01 = Builder.make_link b ~spec ~layer:Layer.Host_layer in
  let l10 = Builder.make_link b ~spec ~layer:Layer.Host_layer in
  Builder.to_host l01 h1;
  Builder.to_host l10 h0;
  Host.add_nic h0 l01;
  Host.add_nic h1 l10;
  Builder.finish b ~name:"direct" ~hosts:[| h0; h1 |] ~switches:[||]
    ~dests:(Switch.dests ~hosts:2 ~size:1)

let create ~sched ?(bottleneck_spec = Topology.default_link_spec) ~pairs () =
  if pairs < 1 then invalid_arg "Dumbbell.create: pairs must be >= 1";
  let b = Builder.create sched in
  let n = 2 * pairs in
  let hosts = Array.init n (fun i -> Host.create ~sched ~addr:(Addr.of_int i)) in
  (* Two classes: the left hosts (0) and the right hosts (1). *)
  let dests = Switch.dests ~hosts:n ~size:pairs in
  let sw_left = Switch.create ~id:0 ~dests in
  let sw_right = Switch.create ~id:1 ~dests in
  let spec = Topology.default_link_spec in
  let down =
    Array.init n (fun i ->
        let up = Builder.make_link b ~spec ~layer:Layer.Host_layer in
        Builder.to_switch up (if i < pairs then sw_left else sw_right);
        Host.add_nic hosts.(i) up;
        let down = Builder.make_link b ~spec ~layer:Layer.Edge_layer in
        Builder.to_host down hosts.(i);
        down)
  in
  let lr = Builder.make_link b ~spec:bottleneck_spec ~layer:Layer.Core_layer in
  let rl = Builder.make_link b ~spec:bottleneck_spec ~layer:Layer.Core_layer in
  Builder.to_switch lr sw_right;
  Builder.to_switch rl sw_left;
  Switch.set_table sw_left
    [| Switch.Local (Array.sub down 0 pairs); Switch.group sw_left [| lr |] |];
  Switch.set_table sw_right
    [| Switch.group sw_right [| rl |]; Switch.Local (Array.sub down pairs pairs) |];
  Builder.finish b
    ~name:(Printf.sprintf "dumbbell-%d" pairs)
    ~hosts ~switches:[| sw_left; sw_right |] ~dests

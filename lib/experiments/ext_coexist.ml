module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell

let jain_index xs =
  let n = float_of_int (Array.length xs) in
  if n = 0. then 1.
  else begin
    let s = Array.fold_left ( +. ) 0. xs in
    let sq = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if sq = 0. then 1. else s *. s /. (n *. sq)
  end

let names = [ "tcp"; "mptcp-8"; "mmptcp" ]

let duration = 20.

(* One three-flow bottleneck simulation; the per-protocol goodputs are
   the whole result. *)
let run_bottleneck scale =
  let sched = Scheduler.create () in
  let net =
    Dumbbell.create ~sched
      ~bottleneck_spec:Sim_workload.Scenario.paper_link_spec ~pairs:3 ()
  in
  let size = 1_000_000_000 in
  (* Pair 0: TCP, pair 1: MPTCP-8, pair 2: MMPTCP. *)
  let tcp_flow =
    Sim_tcp.Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 3)
      ~size ()
  in
  let mptcp_flow =
    Sim_tcp.Flow.start_mptcp ~src:(Topology.host net 1)
      ~dst:(Topology.host net 4) ~size ~subflows:8 ()
  in
  let mmptcp_conn =
    Mmptcp.Mmptcp_conn.start ~src:(Topology.host net 2)
      ~dst:(Topology.host net 5) ~size
      ~rng:(Sim_engine.Rng.create ~seed:scale.Scale.seed)
      ()
  in
  Scheduler.run ~until:(Time.of_sec duration) sched;
  let goodput f =
    float_of_int (Sim_tcp.Flow.bytes_received f) *. 8. /. duration /. 1e6
  in
  [|
    goodput tcp_flow;
    goodput mptcp_flow;
    goodput (Mmptcp.Mmptcp_conn.flow mmptcp_conn);
  |]

let columns total =
  [
    Sink.column "protocol" Sink.str fst;
    Sink.column ~heading:"goodput(Mb/s)" ~text:(Printf.sprintf "%.1f") "goodput_mbps"
      Sink.float snd;
    Sink.column
      ~text:(fun share -> Printf.sprintf "%.1f%%" (100. *. share))
      "share" Sink.float
      (fun (_, rate) -> rate /. Float.max total 1e-9);
  ]

let render _scale pairs =
  let rates = match pairs with [ ((), r) ] -> r | _ -> assert false in
  Report.header "E5: co-existence of TCP, MPTCP and MMPTCP on one bottleneck";
  let total = Array.fold_left ( +. ) 0. rates in
  let t =
    Report.table
      (Sink.table ~name:"ext-coexist" ~columns:(columns total)
         (List.mapi (fun i name -> (name, rates.(i))) names))
  in
  Report.printf "Jain fairness index: %.3f (1.0 = perfectly fair)\n"
    (jain_index rates);
  [ t ]

let experiment =
  Experiment.make ~name:"ext-coexist" ~doc:"E5: co-existence fairness."
    ~points:(fun _scale -> [ () ])
    ~point_label:(fun () -> "bottleneck")
    ~run_point:(fun scale () -> run_bottleneck scale)
    ~render
    ~ending:(fun _ ->
      Some (Time.of_sec duration, Sim_workload.Scenario.Horizon))
    ()

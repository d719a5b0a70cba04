(* The benchmark's workloads: the paper's Figure 1 mix (permutation
   matrix, one third of hosts running long flows, 70 KB Poisson
   shorts) on a FatTree, served by each of the three flow models.
   README.md records why each was chosen and which layers it loads. *)

module Time = Sim_engine.Sim_time
module Scenario = Sim_workload.Scenario

type t = { name : string; config : seed:int -> Scenario.config }

type size = Full | Tiny

(* [k]=4 2:1 is 32 hosts (11 long, 21 short senders); [k]=16 4:1 is
   4096. [Tiny] keeps every workload's shape at a size the benchmark's
   own test runs in about a second. *)
let fattree ~k ~oversub = Scenario.Fattree_topo (Scenario.paper_fattree ~k ~oversub ())

let base ~model ~protocol ~k ~oversub ~shorts ~horizon_s ~seed =
  {
    Scenario.default_config with
    Scenario.model;
    topo = fattree ~k ~oversub;
    protocol;
    seed;
    short_flows = shorts;
    short_rate = 50.;
    horizon = Time.of_sec horizon_s;
  }

let mmptcp = Scenario.Mmptcp_proto Mmptcp.Strategy.default

let all size =
  let pick full tiny = match size with Full -> full | Tiny -> tiny in
  [
    (* Packet stacks under the paper's mix: long-flow forwarding and
       short-flow loss recovery. Supersedes micro case fig1a:inner-loop. *)
    {
      name = "fattree-packet";
      config =
        base ~model:Scenario.Packet ~protocol:mmptcp ~k:4 ~oversub:2
          ~shorts:(pick 400 40) ~horizon_s:(pick 3. 0.5);
    };
    (* The fluid max-min allocator and a 4096-host topology build; no
       packet work. Supersedes micro case fluid:10k-flows. *)
    {
      name = "fattree-fluid";
      config =
        base ~model:Scenario.Fluid ~protocol:mmptcp ~k:(pick 16 4) ~oversub:4
          ~shorts:(pick 4_000 400) ~horizon_s:1.;
    };
    (* Hybrid handoff: packet set-up of 8 subflows, fluid residual
       coupling, per-flow memory. Supersedes micro case hybrid:handoff-1k. *)
    {
      name = "fattree-hybrid";
      config =
        base ~model:(Scenario.Hybrid { handoff_bytes = 10_000 })
          ~protocol:(Scenario.Mptcp_proto { subflows = 8; coupled = true })
          ~k:4 ~oversub:2 ~shorts:(pick 6_000 200) ~horizon_s:(pick 7. 2.);
    };
  ]

(* A run expands its benchmark seed into [inputs] scenario seeds and
   times each input repeatedly. Which long flows collide in the 2:1
   fabric depends on the seed: on fattree-packet the quartile spread
   of one input's event count is 11% over scenario seeds 4-43, and
   that of the mean of four inputs 7% over benchmark seeds 1-10. *)
let inputs = 4
let input_seed ~seed i = (seed * inputs) + i

let find size name = List.find_opt (fun w -> w.name = name) (all size)

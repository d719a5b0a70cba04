(* Correctness of one simulated result, independent of host timing.

   Every completed short must deliver exactly its size and take at
   least its serialisation time on the host link; arrivals may not
   exceed the flow budget. The digest covers every per-flow outcome,
   so two runs of one seed — traced or not — must agree on it.

   One deviation is known and counted rather than failed: the fluid
   engine reports a completed transfer's bytes as
   [int_of_float (size - remaining)] (Engine.conn_bytes,
   lib/fluid/engine.ml:426), which truncates to [size - 1] when a
   float residue is left over. Only a one-byte shortfall on a model
   with a fluid stage is attributed to it; any other shortfall fails. *)

module Scenario = Sim_workload.Scenario
module Time = Sim_engine.Sim_time

let known_defect = "lib/fluid/engine.ml:426 Engine.conn_bytes truncates size - remaining"

type t = {
  digest : string;  (** hex digest of every per-flow outcome *)
  budget : int;  (** short flows the workload may start *)
  arrived : int;  (** short flows that started before the horizon *)
  incomplete : int;  (** arrived shorts unfinished at the horizon *)
  bytes_wrong : int;  (** completed shorts not delivering their size *)
  bytes_truncated : int;  (** completed shorts one byte short: [known_defect] *)
  too_fast : int;  (** completed shorts faster than serialisation *)
  fct_p50_ms : float;
  fct_tail_pct : float;  (** highest percentile with ten samples beyond it *)
  fct_tail_ms : float;
}

let digest (r : Scenario.result) =
  let b = Buffer.create 4096 in
  let flow (f : Scenario.flow_result) =
    Printf.bprintf b "%d %d %d %b %d %d %d %d %d\n" f.src f.dst f.flow_size
      f.is_long (Time.to_ns f.start)
      (match f.fct with Some t -> Time.to_ns t | None -> -1)
      f.rtos f.fast_rtxs f.bytes_received
  in
  Array.iter flow r.shorts;
  Array.iter flow r.longs;
  Printf.bprintf b "%h %h %h" r.net.ns_core_loss r.net.ns_agg_loss
    r.net.ns_core_utilisation;
  Digest.to_hex (Digest.string (Buffer.contents b))

let host_rate_bps (cfg : Scenario.config) =
  match cfg.topo with
  | Scenario.Fattree_topo p -> p.Sim_net.Fattree.host_spec.rate_bps
  | _ -> Scenario.paper_link_spec.rate_bps

let has_fluid_stage (cfg : Scenario.config) =
  match cfg.model with Scenario.Packet -> false | Fluid | Hybrid _ -> true

(* The highest of the usual reporting percentiles that still has at
   least ten samples beyond it. *)
let tail_pct n =
  List.find_opt
    (fun q -> float_of_int n *. (1. -. (q /. 100.)) >= 10.)
    [ 99.9; 99.; 90.; 50. ]
  |> Option.value ~default:50.

let of_result (r : Scenario.result) =
  let cfg = r.config in
  let min_fct_s = float_of_int cfg.short_size *. 8. /. host_rate_bps cfg in
  let wrong = ref 0 and truncated = ref 0 and fast = ref 0 in
  Array.iter
    (fun (f : Scenario.flow_result) ->
      match f.fct with
      | None -> ()
      | Some t ->
        let short_by = f.flow_size - f.bytes_received in
        if short_by = 1 && has_fluid_stage cfg then incr truncated
        else if short_by <> 0 then incr wrong;
        if Time.to_sec t < min_fct_s then incr fast)
    r.shorts;
  let fcts = Scenario.short_fcts_ms r in
  Array.sort Float.compare fcts;
  let n = Array.length fcts in
  let pct q = if n = 0 then 0. else Sim_stats.Summary.percentile fcts q in
  let tail = tail_pct n in
  {
    digest = digest r;
    budget = cfg.short_flows;
    arrived = Array.length r.shorts;
    incomplete = Scenario.incomplete_shorts r;
    bytes_wrong = !wrong;
    bytes_truncated = !truncated;
    too_fast = !fast;
    fct_p50_ms = pct 50.;
    fct_tail_pct = tail;
    fct_tail_ms = pct tail;
  }

(* Failures of one result, as readable reasons; empty when it passes. *)
let failures c =
  List.filter_map Fun.id
    [
      (if c.bytes_wrong > 0 then
         Some (Printf.sprintf "%d completed shorts did not deliver their size" c.bytes_wrong)
       else None);
      (if c.too_fast > 0 then
         Some (Printf.sprintf "%d completed shorts beat their serialisation time" c.too_fast)
       else None);
      (if c.arrived > c.budget then
         Some (Printf.sprintf "%d arrivals exceed the budget of %d" c.arrived c.budget)
       else None);
    ]

(* Failures across every result of one seed: each must pass on its
   own, and all must carry the same digest. *)
let failures_all cs =
  let own = List.concat_map failures cs in
  match cs with
  | [] -> [ "no result" ]
  | c :: rest ->
    if List.for_all (fun c' -> c'.digest = c.digest) rest then own
    else "per-flow digests differ between runs of one seed" :: own

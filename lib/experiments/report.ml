module Scenario = Sim_workload.Scenario
module Summary = Sim_stats.Summary

type fct_stats = {
  completed : int;
  incomplete : int;
  mean_ms : float;
  sd_ms : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  within_100ms : float;
  flows_with_rto : int;
}

let fct_stats r =
  let fcts = Scenario.short_fcts_ms r in
  let n = Array.length fcts in
  let s = if n = 0 then None else Some (Summary.of_array fcts) in
  let stat f = match s with Some s -> f s | None -> nan in
  let fast = Array.fold_left (fun a t -> if t <= 100. then a + 1 else a) 0 fcts in
  {
    completed = n;
    incomplete = Scenario.incomplete_shorts r;
    mean_ms = stat (fun s -> s.Summary.mean);
    sd_ms = stat (fun s -> s.Summary.stddev);
    p50_ms = stat (fun s -> s.Summary.p50);
    p99_ms = stat (fun s -> s.Summary.p99);
    max_ms = stat (fun s -> s.Summary.max);
    within_100ms = (if n = 0 then 0. else float_of_int fast /. float_of_int n);
    flows_with_rto = Scenario.shorts_with_rto r;
  }

(* Mean long-flow goodput; 0 when there are no long flows. *)
let long_mean_mbps r =
  let g = Scenario.long_goodput_mbps r in
  if Array.length g = 0 then 0. else Summary.mean g

type 'p row = { point : 'p; result : Scenario.result; fct : fct_stats }

let rows pairs =
  List.map (fun (point, result) -> { point; result; fct = fct_stats result }) pairs

let label key f = Sink.column key Sink.str (fun r -> f r.point)

let versus heading =
  [ label heading (fun (v, _, _, _) -> v); label "protocol" (fun (_, _, p, _) -> p) ]

let ms heading key proj =
  Sink.column ~heading ~text:Sim_stats.Table.fms key Sink.float proj

let mean ?(heading = "mean(ms)") () = ms heading "mean_ms" (fun r -> r.fct.mean_ms)
let sd ?(heading = "sd(ms)") () = ms heading "sd_ms" (fun r -> r.fct.sd_ms)
let p50 () = ms "p50(ms)" "p50_ms" (fun r -> r.fct.p50_ms)
let p99 () = ms "p99(ms)" "p99_ms" (fun r -> r.fct.p99_ms)

let rto_flows () =
  Sink.column ~heading:"rto-flows" "rto_flows" Sink.int (fun r -> r.fct.flows_with_rto)

let incomplete () = Sink.column "incomplete" Sink.int (fun r -> r.fct.incomplete)

let fct ?sd_heading () =
  [ mean (); sd ?heading:sd_heading (); p99 (); rto_flows () ]

let long_goodput ?(heading = "long goodput(Mb/s)") () =
  Sink.column ~heading ~text:(Printf.sprintf "%.1f") "long_goodput_mbps"
    Sink.float (fun r -> long_mean_mbps r.result)

(* The one place experiment output touches stdout (simlint rule D004:
   this module is allowlisted, nothing else in lib/ may print). The
   registry renders in registry order once every point has finished,
   so going through a single channel here is what keeps `--jobs N`
   stdout byte-identical. *)

let printf fmt = Printf.printf fmt

let out s = print_string s

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let workload ?(note = "") scale =
  Printf.printf "workload: %s%s\n" (Format.asprintf "%a" Scale.pp scale) note

let table t =
  print_string (Sink.text t);
  t

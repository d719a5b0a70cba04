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
  if Array.length fcts = 0 then
    {
      completed = 0;
      incomplete = Scenario.incomplete_shorts r;
      mean_ms = nan;
      sd_ms = nan;
      p50_ms = nan;
      p99_ms = nan;
      max_ms = nan;
      within_100ms = 0.;
      flows_with_rto = 0;
    }
  else begin
    let s = Summary.of_array fcts in
    let fast = Array.fold_left (fun a t -> if t <= 100. then a + 1 else a) 0 fcts in
    {
      completed = Array.length fcts;
      incomplete = Scenario.incomplete_shorts r;
      mean_ms = s.Summary.mean;
      sd_ms = s.Summary.stddev;
      p50_ms = s.Summary.p50;
      p99_ms = s.Summary.p99;
      max_ms = s.Summary.max;
      within_100ms = float_of_int fast /. float_of_int (Array.length fcts);
      flows_with_rto = Scenario.shorts_with_rto r;
    }
  end

(* The one place experiment output touches stdout (simlint rule D004:
   this module is allowlisted, nothing else in lib/ may print). The
   registry renders in registry order once every point has finished,
   so going through a single channel here is what keeps `--jobs N`
   stdout byte-identical. *)

let printf fmt = Printf.printf fmt

let out s = print_string s

let newline () = print_newline ()

let table t = print_string (Sim_stats.Table.render t)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

let long_mean_mbps r =
  let g = Scenario.long_goodput_mbps r in
  if Array.length g = 0 then 0. else Summary.mean g

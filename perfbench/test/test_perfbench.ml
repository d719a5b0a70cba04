(* The benchmark's own test: every workload runs at its tiny size,
   prints every metric BENCHMARK.json names with its unit, and passes
   its correctness check; the check fails on planted bad results. *)

open Perfbench
module Scenario = Sim_workload.Scenario

let out_dir = "perfbench-test-out"

(* (name, unit) pairs of one section of BENCHMARK.json, which keeps
   each metric on one line as {"name": "..", "unit": "..", ..}. *)
let declared section =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let start = Str.search_forward (Str.regexp_string ("\"" ^ section ^ "\"")) text 0 in
  let stop =
    try Str.search_forward (Str.regexp "\\]") text start with Not_found -> String.length text
  in
  let re = Str.regexp "\"name\": \"\\([^\"]+\\)\", \"unit\": \"\\([^\"]+\\)\"" in
  let rec scan pos acc =
    match Str.search_forward re text pos with
    | p when p < stop ->
      scan (Str.match_end ()) ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  scan start []

let printed (t : Report.t) =
  List.map (fun (x : Report.metric) -> (x.name, x.unit_)) t.metrics

let check_prints section (t : Report.t) =
  let want = declared section in
  Alcotest.(check bool) (section ^ " declared") true (want <> []);
  Alcotest.(check (list (pair string string))) section want (printed t);
  let json = Report.json t in
  List.iter
    (fun (name, unit_) ->
      let needle = Printf.sprintf "\"%s\": {\"value\": " name in
      Alcotest.(check bool) (name ^ " in JSON") true
        (Str.string_match (Str.regexp (".*" ^ Str.quote needle)) json 0);
      Alcotest.(check bool) (unit_ ^ " unit in JSON") true
        (Str.string_match
           (Str.regexp (".*" ^ Str.quote needle ^ "[^}]*\"unit\": \"" ^ Str.quote unit_ ^ "\""))
           json 0))
    want

let run_workload (w : Workload.t) () =
  let cfg = w.config ~seed:(Workload.input_seed ~seed:1 0) in
  let ref_s = Reference.time () in
  let sims = [ (Measure.sim cfg, ref_s); (Measure.sim cfg, ref_s) ] in
  let e2e =
    Report.end_to_end ~setup_s:[ (Measure.setup ~budget_s:0.01 cfg, ref_s) ] [ sims ]
  in
  Alcotest.(check (list string)) "end-to-end correct" [] e2e.failures;
  Alcotest.(check bool) "operations attempted" true (e2e.attempted > 0);
  check_prints "end_to_end" e2e;
  Measure.mkdir_p out_dir;
  let tr = Measure.traced ~out_dir ~label:w.name cfg in
  Alcotest.(check string) "traced digest" (fst (List.hd sims)).check.digest
    tr.run.check.digest;
  let layers = Report.per_layer sims [ (tr, ref_s) ] in
  Alcotest.(check (list string)) "per-layer correct" [] layers.failures;
  check_prints "per_layer" layers;
  Alcotest.(check bool) "spans written" true
    (Sys.file_exists (Filename.concat out_dir ("spans-" ^ w.name ^ ".json")))

(* A real tiny result with one completed short altered by [f]. *)
let planted model f =
  let w = Option.get (Workload.find Tiny model) in
  let r = Scenario.run (w.config ~seed:4) in
  let i =
    match
      List.find_opt
        (fun i -> r.shorts.(i).fct <> None)
        (List.init (Array.length r.shorts) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "no completed short to plant on"
  in
  let shorts = Array.copy r.shorts in
  shorts.(i) <- f shorts.(i);
  (Check.of_result r, Check.of_result { r with shorts })

let short_by n (f : Scenario.flow_result) = { f with bytes_received = f.flow_size - n }

let test_short_delivery () =
  let ok, bad = planted "fattree-packet" (short_by 1000) in
  Alcotest.(check (list string)) "unaltered passes" [] (Check.failures ok);
  Alcotest.(check bool) "1000 bytes short fails" true (Check.failures bad <> []);
  let _, bad = planted "fattree-packet" (short_by 1) in
  Alcotest.(check bool) "1 byte short fails on packet" true (Check.failures bad <> []);
  let _, trunc = planted "fattree-fluid" (short_by 1) in
  Alcotest.(check (list string)) "1 byte short on fluid is the known defect" []
    (Check.failures trunc);
  Alcotest.(check bool) "and is counted" true (trunc.bytes_truncated > 0);
  let _, bad = planted "fattree-fluid" (short_by 2) in
  Alcotest.(check bool) "2 bytes short fails on fluid" true (Check.failures bad <> [])

let test_fct_floor () =
  let _, bad =
    planted "fattree-packet" (fun f -> { f with fct = Some (Sim_engine.Sim_time.of_ms 1.) })
  in
  Alcotest.(check bool) "faster than serialisation fails" true (Check.failures bad <> [])

let test_changed_digest () =
  let ok, moved =
    planted "fattree-packet" (fun f ->
        { f with fct = Option.map (Sim_engine.Sim_time.add (Sim_engine.Sim_time.of_ms 1.)) f.fct })
  in
  Alcotest.(check (list string)) "moved result passes alone" [] (Check.failures moved);
  Alcotest.(check bool) "digest changed" true (ok.digest <> moved.digest);
  Alcotest.(check bool) "differing digests fail" true (Check.failures_all [ ok; moved ] <> []);
  let w = Option.get (Workload.find Tiny "fattree-packet") in
  let sim = Measure.sim (w.config ~seed:4) in
  let e2e =
    Report.end_to_end ~setup_s:[ (1e-4, 1.) ]
      [ [ (sim, 1.); ({ sim with check = { sim.check with digest = moved.digest } }, 1.) ] ]
  in
  Alcotest.(check bool) "result line reports incorrect" true
    (Str.string_match (Str.regexp_string "{\"correct\": false") (Report.json e2e) 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        List.map
          (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (run_workload w))
          (Workload.all Tiny) );
      ( "check",
        [
          Alcotest.test_case "short delivery" `Quick test_short_delivery;
          Alcotest.test_case "fct floor" `Quick test_fct_floor;
          Alcotest.test_case "changed digest" `Quick test_changed_digest;
        ] );
    ]

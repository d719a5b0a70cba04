(* Determinism and parallel-runner tests: a simulation is a pure
   function of its config (no cross-run state), the process pool
   matches the sequential path byte-for-byte — results, render input,
   sink rows and probe artifacts — while surviving worker failures,
   and --jobs > 1 without a worker command line is refused. *)

module Scenario = Sim_workload.Scenario
module Scale = Sim_experiments.Scale
module Fig1a = Sim_experiments.Fig1a
module Runner = Sim_experiments.Runner
module Experiment = Sim_experiments.Experiment
module Registry = Sim_experiments.Registry
module Sink = Sim_experiments.Sink
module Proc_pool = Sim_engine.Proc_pool
module Time = Sim_engine.Sim_time

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Process-pool fixtures.

   The test binary doubles as its own worker: spawned with the hidden
   [--proc-worker MODE] flag it serves the named job function over the
   pipe protocol and never reaches Alcotest. The registry modes
   rebuild the same suites the coordinating test passes to
   [Registry.run] — parent and worker agreeing on what job index [i]
   means is exactly the [jobs > 1] contract. *)

let worker_argv mode = [| Sys.executable_name; "--proc-worker"; mode |]

(* What Registry.run needs at [jobs]: a worker command line only when
   it shards. *)
let registry_argv ~jobs mode =
  if jobs > 1 then Some (worker_argv mode) else None

(* Two cheap synthetic experiments: the mini-suite exercises the whole
   worker-process pipeline — shared queue, marshalling,
   render-in-registry-order, artifact sinks — in milliseconds. *)
let mini_suite =
  let squares =
    Experiment.make ~name:"squares" ~doc:"squares of small ints"
      ~points:(fun _ -> [ 1; 2; 3 ])
      ~point_label:string_of_int
      ~run_point:(fun _ i -> i * i)
      ~render:(fun _ pairs ->
        List.iter (fun (p, r) -> Printf.printf "%d^2 = %d\n" p r) pairs;
        [
          Sink.table ~name:"squares"
            ~columns:
              [ Sink.column "x" Sink.int fst; Sink.column "x_squared" Sink.int snd ]
            pairs;
        ])
      ()
  in
  let negations =
    Experiment.make ~name:"negations" ~doc:"negations of small ints"
      ~points:(fun _ -> [ 4; 5 ])
      ~point_label:string_of_int
      ~run_point:(fun _ i -> -i)
      ~render:(fun _ pairs ->
        List.iter (fun (p, r) -> Printf.printf "-%d = %d\n" p r) pairs;
        [ Sink.table ~name:"negations" ~columns:[ Sink.column "neg" Sink.int snd ] pairs ])
      ()
  in
  [ squares; negations ]

(* The F1a sweep at tiny scale, cut to two subflow counts; render
   stashes the completed pairs so the test can compare whole results. *)
let fig1a_sweep ~log =
  [
    Experiment.make ~name:"fig1a-sweep" ~doc:"fig1a at 1..2 subflows"
      ~points:(fun scale -> Fig1a.configs ~lo:1 ~hi:2 scale)
      ~point_label:(fun (n, _) -> string_of_int n)
      ~run_point:(fun _ (_, cfg) -> Scenario.run cfg)
      ~render:(fun _ pairs ->
        log := List.map snd pairs;
        [])
      ();
  ]

(* Three probed packet simulations: each point's capture crosses the
   pipe inside its marshalled result and is rendered by Probe_sink in
   the coordinator. *)
let probed_suite =
  let obs =
    {
      Scenario.default_obs with
      Scenario.probe_interval = Some (Time.of_ms 50.);
    }
  in
  let scale =
    { Scale.k = 4; oversub = 2; flows = 10; rate = 50.; seed = 0;
      horizon_s = 1.; model = Scenario.Packet; obs }
  in
  [
    Experiment.make ~name:"probed" ~doc:"probed MMPTCP runs"
      ~points:(fun _ -> [ 11; 12; 13 ])
      ~point_label:string_of_int
      ~run_point:(fun _ seed ->
        Scenario.run
          (Scale.scenario_config { scale with Scale.seed }
             ~protocol:(Scenario.Mmptcp_proto Mmptcp.Strategy.default)))
      ~render:(fun _ _ -> [])
      ~capture:(fun r -> r.Scenario.obs)
      ();
  ]

(* Points 0..flows-1, result point * seed: render input and sink rows
   are both observable, so any reordering or loss on the way back from
   the workers shows. *)
let synthetic_scale = { Scale.tiny with Scale.flows = 8; seed = 3 }

let synthetic ~log =
  [
    Experiment.make ~name:"synthetic" ~doc:"test experiment"
      ~points:(fun scale -> List.init scale.Scale.flows Fun.id)
      ~point_label:(fun i -> Printf.sprintf "p%d" i)
      ~run_point:(fun scale i -> i * scale.Scale.seed)
      ~render:(fun _ pairs ->
        log := pairs;
        [
          Sink.table ~name:"synthetic"
            ~columns:
              [ Sink.column "point" Sink.int fst; Sink.column "result" Sink.int snd ]
            pairs;
        ])
      ();
  ]

let failing_suite =
  [
    Experiment.make ~name:"failing" ~doc:"raises on its second point"
      ~points:(fun _ -> [ 0; 1; 2 ])
      ~point_label:string_of_int
      ~run_point:(fun _ i ->
        if i = 1 then failwith "synthetic point failure" else i)
      ~render:(fun _ _ -> [])
      ()
  ]

let () =
  match Sys.argv with
  | [| _; "--proc-worker"; mode |] ->
    (match mode with
    | "square" -> Proc_pool.serve ~run:(fun i -> Ok (string_of_int (i * i)))
    | "die-at-1" ->
      Proc_pool.serve ~run:(fun i ->
          if i = 1 then exit 3 else Ok (string_of_int i))
    | "mini" -> Registry.worker Scale.tiny mini_suite
    | "fig1a-sweep" -> Registry.worker Scale.tiny (fig1a_sweep ~log:(ref []))
    | "probed" -> Registry.worker Scale.tiny probed_suite
    | "synthetic" -> Registry.worker synthetic_scale (synthetic ~log:(ref []))
    | "failing" -> Registry.worker Scale.tiny failing_suite
    | m ->
      prerr_endline ("unknown proc worker mode: " ^ m);
      exit 2);
    exit 0
  | _ -> ()

(* A Scenario.result is plain data (it crosses the worker pipe), so
   structural comparison covers flows, network stats and event counts
   alike; [compare] rather than [=] so a NaN statistic equals itself. *)
let results_identical (a : Scenario.result) b = compare a b = 0

(* ------------------------------------------------------------------ *)
(* Determinism: same config + seed -> identical flow results. *)

let test_back_to_back_runs_identical () =
  let cfg =
    Scale.scenario_config Scale.tiny
      ~protocol:(Scenario.Mptcp_proto { subflows = 2; coupled = true })
  in
  let r1 = Scenario.run cfg in
  let r2 = Scenario.run cfg in
  check_int "same short count" (Array.length r1.Scenario.shorts)
    (Array.length r2.Scenario.shorts);
  check_bool "identical flow results" true (results_identical r1 r2)

(* ------------------------------------------------------------------ *)
(* Proc_pool: the raw pipe protocol *)

let test_proc_pool_runs_all_points () =
  let n = 20 in
  let results = Array.make n None in
  Proc_pool.run ~jobs:2 ~worker_argv:(worker_argv "square") ~n
    ~deliver:(fun i r ->
      check_bool (Printf.sprintf "point %d delivered once" i) true
        (results.(i) = None);
      results.(i) <- Some r);
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok s) ->
        Alcotest.(check string)
          (Printf.sprintf "point %d payload" i)
          (string_of_int (i * i))
          s
      | Some (Error m) -> Alcotest.fail ("unexpected error: " ^ m)
      | None -> Alcotest.fail (Printf.sprintf "point %d never delivered" i))
    results

let test_proc_pool_dead_worker_no_hang () =
  (* One worker exits mid-point without replying. The pool must report
     that point as failed, finish every other point on the survivor,
     and return — a hang here fails the suite by timeout. *)
  let n = 6 in
  let results = Array.make n None in
  Proc_pool.run ~jobs:2 ~worker_argv:(worker_argv "die-at-1") ~n
    ~deliver:(fun i r -> results.(i) <- Some r);
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 1, Some (Error m) ->
        check_bool "death reported" true (contains m "died")
      | 1, Some (Ok _) -> Alcotest.fail "dead worker's point reported Ok"
      | _, Some (Ok _) -> ()
      | _, Some (Error m) -> Alcotest.fail ("unexpected error: " ^ m)
      | _, None -> Alcotest.fail (Printf.sprintf "point %d never delivered" i))
    results

(* ------------------------------------------------------------------ *)
(* Registry.run over worker processes *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let temp_dir_name prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Run [suite] under [Registry.run ~out] and return its artifacts as
   (basename, bytes), sorted. manifest.json is left out: it legitimately
   differs between job counts (the jobs field, timings). [jobs > 1]
   shards over workers serving [mode]. *)
let run_artifacts ?(scale = Scale.tiny) ~jobs ~mode suite =
  let dir = temp_dir_name "mmptcp_out" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Registry.run ~out:dir ?worker_argv:(registry_argv ~jobs mode) ~jobs
        scale suite;
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> f <> "manifest.json")
      |> List.sort compare
      |> List.map (fun f -> (f, read_file (Filename.concat dir f))))

let check_artifacts_identical seq par =
  Alcotest.(check (list string))
    "same artifact set" (List.map fst seq) (List.map fst par);
  check_bool "suite produced artifacts" true (seq <> []);
  List.iter2
    (fun (f, a) (_, b) -> Alcotest.(check string) (f ^ " byte-identical") a b)
    seq par

let test_processes_artifacts_match_sequential () =
  check_artifacts_identical
    (run_artifacts ~jobs:1 ~mode:"mini" mini_suite)
    (run_artifacts ~jobs:2 ~mode:"mini" mini_suite)

let test_fig1a_sweep_matches_sequential () =
  (* Every whole Scenario.result of the F1a sweep — flows, events,
     duration — comes back from a worker process identical to the
     in-process run. *)
  let at jobs =
    let log = ref [] in
    Registry.run
      ?worker_argv:(registry_argv ~jobs "fig1a-sweep")
      ~jobs Scale.tiny (fig1a_sweep ~log);
    !log
  in
  let seq = at 1 and par = at 2 in
  check_int "both sweep points ran" 2 (List.length seq);
  check_int "lengths" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      check_bool
        (Printf.sprintf "sweep point %d identical" i)
        true (results_identical a b))
    (List.combine seq par)

let test_probe_artifacts_jobs_invariant () =
  let seq = run_artifacts ~jobs:1 ~mode:"probed" probed_suite in
  check_bool "probe artifacts rendered" true
    (List.exists (fun (f, _) -> String.starts_with ~prefix:"probe-" f) seq);
  check_artifacts_identical seq
    (run_artifacts ~jobs:2 ~mode:"probed" probed_suite)

let test_synthetic_jobs_invariant () =
  let at jobs =
    let log = ref [] in
    let arts =
      run_artifacts ~scale:synthetic_scale ~jobs ~mode:"synthetic"
        (synthetic ~log)
    in
    (!log, arts)
  in
  let log1, rows1 = at 1 in
  let log4, rows4 = at 4 in
  Alcotest.(check (list (pair int int)))
    "render pairs in declaration order"
    (List.init synthetic_scale.Scale.flows (fun i ->
         (i, i * synthetic_scale.Scale.seed)))
    log1;
  Alcotest.(check (list (pair int int)))
    "render input identical at jobs 1 vs 4" log1 log4;
  check_artifacts_identical rows1 rows4

let test_missing_worker_argv_rejected () =
  (* Without a worker command line there is nothing to shard over;
     running sequentially instead would silently ignore --jobs. *)
  Alcotest.check_raises "jobs 4, no worker_argv"
    (Invalid_argument "Registry.run: jobs > 1 requires worker_argv")
    (fun () -> Registry.run ~jobs:4 Scale.tiny mini_suite)

let test_processes_point_failure_attributed () =
  match
    Registry.run ~worker_argv:(worker_argv "failing") ~jobs:2 Scale.tiny
      failing_suite
  with
  | () -> Alcotest.fail "expected Point_failed"
  | exception Runner.Point_failed { experiment; point; exn } ->
    Alcotest.(check string) "experiment attributed" "failing" experiment;
    Alcotest.(check string) "point attributed" "1" point;
    let cause =
      match exn with Runner.Remote c -> c | e -> Printexc.to_string e
    in
    check_bool "cause carries the worker's exception" true
      (contains cause "synthetic point failure")

let () =
  Alcotest.run "runner"
    [
      ( "determinism",
        [
          Alcotest.test_case "back-to-back runs identical" `Slow
            test_back_to_back_runs_identical;
        ] );
      ( "proc_pool",
        [
          Alcotest.test_case "runs all points" `Quick
            test_proc_pool_runs_all_points;
          Alcotest.test_case "dead worker no hang" `Quick
            test_proc_pool_dead_worker_no_hang;
          Alcotest.test_case "processes artifacts match sequential" `Quick
            test_processes_artifacts_match_sequential;
          Alcotest.test_case "point failure attributed" `Quick
            test_processes_point_failure_attributed;
          Alcotest.test_case "missing worker argv rejected" `Quick
            test_missing_worker_argv_rejected;
          Alcotest.test_case "fig1a sweep matches sequential" `Slow
            test_fig1a_sweep_matches_sequential;
        ] );
      ( "instance",
        [
          Alcotest.test_case "results invariant under jobs" `Quick
            test_synthetic_jobs_invariant;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "artifacts invariant under jobs" `Quick
            test_probe_artifacts_jobs_invariant;
        ] );
    ]

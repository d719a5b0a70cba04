(* Tests for the experiment registry and the spec/instance machinery,
   using a synthetic experiment so they run in microseconds: jobs
   carry their labels, the clock prices every point, failures carry
   experiment + point attribution (Runner.Point_failed), and
   Registry.select re-sorts any subset into canonical order. That
   render input and sink rows are identical at any job count is
   checked in test_runner, whose binary doubles as the worker process;
   the real experiments' stdout determinism is enforced end-to-end in
   CI (all --jobs 1 vs 4 diff). *)

module Experiment = Sim_experiments.Experiment
module Registry = Sim_experiments.Registry
module Runner = Sim_experiments.Runner
module Scale = Sim_experiments.Scale
module Sink = Sim_experiments.Sink

let scale = { Scale.tiny with Scale.flows = 8; seed = 3 }

(* Points 0..flows-1; result is point * seed, logged by render. *)
let synthetic ~log ?(boom = fun _ -> false) () =
  Experiment.make ~name:"synthetic" ~doc:"test experiment"
    ~points:(fun scale -> List.init scale.Scale.flows Fun.id)
    ~point_label:(fun i -> Printf.sprintf "p%d" i)
    ~run_point:(fun scale i ->
      if boom i then failwith "kaboom";
      i * scale.Scale.seed)
    ~render:(fun _ pairs ->
      log := pairs;
      [
        Sink.table ~name:"synthetic"
          ~columns:
            [
              Sink.column "point" Sink.int fst;
              Sink.column "result" Sink.int snd;
            ]
          pairs;
      ])
    ()

let run_jobs inst =
  List.iter Experiment.run_job (Experiment.instance_jobs inst)

(* ------------------------------------------------------------------ *)
(* Instance machinery *)

let test_finish_requires_run () =
  let log = ref [] in
  let inst = Experiment.instantiate (synthetic ~log ()) scale in
  Alcotest.check_raises "unrun point"
    (Invalid_argument "Experiment.finish: point [p0] of synthetic has not run")
    (fun () -> ignore (Experiment.finish inst))

let test_job_labels () =
  let log = ref [] in
  let inst = Experiment.instantiate (synthetic ~log ()) scale in
  Alcotest.(check (list string))
    "labels in points order"
    (List.init scale.Scale.flows (Printf.sprintf "p%d"))
    (List.map Experiment.job_label (Experiment.instance_jobs inst))

let test_point_seconds () =
  (* A fake clock ticking once per call: every point costs exactly one
     tick, so the manifest timing plumbing is fully observable. *)
  let ticks = ref 0. in
  let clock () =
    ticks := !ticks +. 1.;
    !ticks
  in
  let log = ref [] in
  let inst = Experiment.instantiate ~clock (synthetic ~log ()) scale in
  run_jobs inst;
  let secs = Experiment.point_seconds inst in
  Alcotest.(check int) "one entry per point" scale.Scale.flows
    (List.length secs);
  List.iteri
    (fun i (label, s) ->
      Alcotest.(check string) "label" (Printf.sprintf "p%d" i) label;
      Alcotest.(check (float 1e-9)) "one tick" 1. s)
    secs

(* ------------------------------------------------------------------ *)
(* Failure attribution (every point failure must name its experiment
   and point; test_runner checks the same across a process boundary) *)

let test_point_failure_attribution () =
  let log = ref [] in
  let e = synthetic ~log ~boom:(fun i -> i = 5) () in
  let inst = Experiment.instantiate e scale in
  match run_jobs inst with
  | () -> Alcotest.fail "expected Point_failed"
  | exception Runner.Point_failed { experiment; point; exn } ->
    Alcotest.(check string) "experiment" "synthetic" experiment;
    Alcotest.(check string) "point" "p5" point;
    (match exn with
    | Failure m -> Alcotest.(check string) "cause" "kaboom" m
    | e -> Alcotest.failf "unexpected cause %s" (Printexc.to_string e));
    Alcotest.(check string) "registered printer"
      "experiment synthetic, point [p5]: Failure(\"kaboom\")"
      (Printexc.to_string (Runner.Point_failed { experiment; point; exn }))

(* ------------------------------------------------------------------ *)
(* Registry *)

let canonical =
  [
    "fig1a"; "fig1b"; "fig1c"; "table1"; "ext-switching"; "ext-load";
    "ext-hotspot"; "ext-multihomed"; "ext-coexist"; "ext-dupack";
    "ext-topologies"; "ext-matrices"; "ext-sack"; "ext-fluid-xval";
    "ext-scale";
  ]

let test_registry_names () =
  Alcotest.(check (list string)) "canonical order" canonical (Registry.names ());
  Alcotest.(check int) "all distinct" (List.length canonical)
    (List.length (List.sort_uniq compare (Registry.names ())))

let test_registry_find () =
  Alcotest.(check bool) "fig1a found" true
    (match Registry.find "fig1a" with
    | Some e -> Experiment.name e = "fig1a"
    | None -> false);
  Alcotest.(check bool) "unknown absent" true
    (Option.is_none (Registry.find "fig9z"))

let test_registry_select () =
  (match Registry.select [ "ext-coexist"; "fig1b" ] with
  | Ok es ->
    Alcotest.(check (list string))
      "subset re-sorted into registry order" [ "fig1b"; "ext-coexist" ]
      (List.map Experiment.name es)
  | Error u -> Alcotest.failf "unexpected unknown %s" u);
  (match Registry.select [ "fig1b"; "fig1b" ] with
  | Ok es -> Alcotest.(check int) "duplicates collapse" 1 (List.length es)
  | Error u -> Alcotest.failf "unexpected unknown %s" u);
  match Registry.select [ "fig1b"; "nope" ] with
  | Error u -> Alcotest.(check string) "first unknown name" "nope" u
  | Ok _ -> Alcotest.fail "expected Error"

let () =
  Alcotest.run "registry"
    [
      ( "instance",
        [
          Alcotest.test_case "finish requires run" `Quick
            test_finish_requires_run;
          Alcotest.test_case "job labels" `Quick test_job_labels;
          Alcotest.test_case "point seconds" `Quick test_point_seconds;
        ] );
      ( "failure",
        [
          Alcotest.test_case "attribution" `Quick
            test_point_failure_attribution;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "select" `Quick test_registry_select;
        ] );
    ]

(* Tests for the experiment registry and the spec/instance machinery,
   using a synthetic experiment so they run in microseconds: jobs
   carry their labels, the clock prices every point, failures carry
   experiment + point attribution (Runner.Point_failed), --out is
   created (parents included) before any point runs,
   Registry.select re-sorts any subset into canonical order, and a
   point's minor words are exact whatever ran before it. That
   render input and sink rows are identical at any job count is
   checked in test_runner; the real experiments' stdout determinism
   is enforced end-to-end in CI (all --jobs 1 vs 4 diff). *)

module Experiment = Sim_experiments.Experiment
module Registry = Sim_experiments.Registry
module Runner = Sim_experiments.Runner
module Scale = Sim_experiments.Scale
module Sink = Sim_experiments.Sink
module Prof = Sim_experiments.Prof

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

let run_jobs inst =
  List.iter
    (fun j -> Experiment.accept_job j (Experiment.run_job j))
    (Experiment.instance_jobs inst)

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
  let spans = Experiment.point_spans inst in
  Alcotest.(check int) "one entry per point" scale.Scale.flows
    (List.length spans);
  List.iteri
    (fun i (label, sp) ->
      Alcotest.(check string) "label" (Printf.sprintf "p%d" i) label;
      Alcotest.(check (float 1e-9)) "one tick" 1. sp.Prof.sp_wall_s)
    spans

(* ------------------------------------------------------------------ *)
(* Exact minor words (CI pins the prof artifact's minor_words column) *)

(* [n] cons cells of 3 words each, alive until counted. *)
let alloc_cells n = List.length (Sys.opaque_identity (List.init n Fun.id))

let minor_words f =
  (snd (Prof.measure ~clock:(fun () -> 0.) f)).Prof.sp_minor_words

let test_prof_young_words () =
  (* From an empty minor heap, 10k cells never reach a collection: a
     count that only advances at collections reads 0 here. *)
  Gc.minor ();
  let w = minor_words (fun () -> alloc_cells 10_000) in
  if w < 30_000. then
    Alcotest.failf "measured %.0f minor words, want at least 30000" w

let test_prof_words_history_free () =
  (* The point spans 2.5 minor heaps; the other point leaves the heap
     0.8 full, which shifts where the point's collections fall. *)
  let heap = (Gc.get ()).Gc.minor_heap_size in
  let point () = alloc_cells (heap * 5 / 6) in
  let other () = alloc_cells (heap * 4 / 15) in
  Gc.minor ();
  let alone = minor_words point in
  Gc.minor ();
  ignore (Sys.opaque_identity (other ()));
  let after = minor_words point in
  Alcotest.(check (float 0.)) "same words after another point" alone after

(* ------------------------------------------------------------------ *)
(* Failure attribution (every point failure must name its experiment
   and point; test_runner checks the same across a process boundary) *)

let test_point_failure_attribution () =
  let log = ref [] in
  let e = synthetic ~log ~boom:(fun i -> i = 5) () in
  match Registry.run ~jobs:1 scale [ e ] with
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
(* --out DIR *)

let temp_path prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_out_nested () =
  let base = temp_path "mmptcp_nested" in
  let out = Filename.concat (Filename.concat base "a") "b" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists base then rm_rf base)
    (fun () ->
      Registry.run ~out ~jobs:1 scale [ synthetic ~log:(ref []) () ];
      Alcotest.(check bool) "manifest written" true
        (Sys.file_exists (Filename.concat out "manifest.json")))

let test_out_under_file () =
  let file = Filename.temp_file "mmptcp_file" "" in
  let out = Filename.concat file "sub" in
  (* [boom] is asked once per point run: it counts them here. *)
  let ran = ref 0 in
  let e =
    synthetic ~log:(ref [])
      ~boom:(fun _ ->
        incr ran;
        false)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      match Registry.run ~out ~jobs:1 scale [ e ] with
      | () -> Alcotest.fail "expected Sys_error"
      | exception Sys_error msg ->
        Alcotest.(check bool) ("names the file: " ^ msg) true
          (String.starts_with ~prefix:(file ^ ": ") msg);
        Alcotest.(check int) "no point ran" 0 !ran)

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
      ( "prof",
        [
          Alcotest.test_case "minor words count young blocks" `Quick
            test_prof_young_words;
          Alcotest.test_case "minor words independent of history" `Quick
            test_prof_words_history_free;
        ] );
      ( "out",
        [
          Alcotest.test_case "nested dir created" `Quick test_out_nested;
          Alcotest.test_case "under a file fails first" `Quick
            test_out_under_file;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "select" `Quick test_registry_select;
        ] );
    ]

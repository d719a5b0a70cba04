(* Fixture-driven tests for the determinism lint: every rule must trip
   on its known-bad snippet, clean code and exempt modules must pass,
   and the allowlist must suppress (and report staleness) correctly.

   The fixtures compile as the [simlint_fixtures] library (so they are
   well-typed programs, wrong only in the ways the lint catches), and
   the tests analyse the resulting .cmt files — the same input the
   `@lint` alias feeds the tool. *)

module L = Simlint_core

(* Where dune puts the fixture library's cmts, relative to the test's
   working directory. *)
let cmt_of name =
  let modname = String.capitalize_ascii (Filename.remove_extension name) in
  String.concat Filename.dir_sep
    [ "fixtures"; ".simlint_fixtures.objs"; "byte";
      "simlint_fixtures__" ^ modname ^ ".cmt" ]

let src_of name = "tools/simlint/test/fixtures/" ^ name

let findings_of name = (L.lint_cmt (cmt_of name)).L.cl_findings
let rules_of name = List.map (fun (f : L.finding) -> f.rule) (findings_of name)

let rule = Alcotest.testable (Fmt.of_to_string L.rule_id) ( = )

let check_rules name file expected =
  Alcotest.(check (list rule)) name expected (rules_of file)

(* --- each rule has at least one failing fixture --- *)

let test_d001_ref () = check_rules "toplevel ref" "bad_d001_ref.ml" [ L.D001 ]

let test_d001_containers () =
  (* Four direct toplevel allocations plus one captured by a closure. *)
  check_rules "toplevel containers" "bad_d001_containers.ml"
    [ L.D001; L.D001; L.D001; L.D001; L.D001 ]

let test_d001_mutable_record () =
  check_rules "mutable record literal" "bad_d001_mutable_record.ml" [ L.D001 ]

let test_d001_nested_module () =
  check_rules "nested module ref" "bad_d001_nested_module.ml" [ L.D001 ]

let test_d002_random () =
  check_rules "Random calls" "bad_d002_random.ml" [ L.D002; L.D002 ]

let test_d002_clock () =
  check_rules "wall clock" "bad_d002_clock.ml" [ L.D002; L.D002 ]

let test_d003_polyhash () =
  check_rules "polymorphic hash" "bad_d003_polyhash.ml" [ L.D003; L.D003 ]

let test_d004_print () =
  check_rules "console output" "bad_d004_print.ml" [ L.D004; L.D004; L.D004 ]

let test_d005_domain () =
  (* Domain.spawn, Domain.join, Mutex.create, Atomic.make *)
  check_rules "concurrency primitives" "bad_d005_domain.ml"
    [ L.D005; L.D005; L.D005; L.D005 ]

let test_d006_spawn () =
  (* Unix.fork, Unix.create_process, Unix.open_process_in *)
  check_rules "process spawning" "bad_d006_spawn.ml"
    [ L.D006; L.D006; L.D006 ]

(* --- D007: pooled-packet escapes --- *)

(* Each bad fixture must produce exactly one D007 finding at the
   escape site (file, line and column all checked), and each good
   fixture — the sanctioned Packet.copy patterns — none at all.
   Filtered by rule: the closure-capture fixture legitimately also
   trips D008 (it schedules a closure), asserted separately below. *)
let check_d007 file ~line ~col () =
  match
    List.filter (fun (f : L.finding) -> f.rule = L.D007) (findings_of file)
  with
  | [ f ] ->
    Alcotest.(check string) "file" (src_of file) f.L.file;
    Alcotest.(check int) "line" line f.L.line;
    Alcotest.(check int) "col" col f.L.col
  | fs ->
    Alcotest.failf "%s: expected exactly one D007 finding, got %d:\n%s" file
      (List.length fs)
      (String.concat "\n" (List.map L.pp_finding fs))

let test_d007_field_store = check_d007 "bad_d007_field_store.ml" ~line:5 ~col:62
let test_d007_closure = check_d007 "bad_d007_closure_capture.ml" ~line:7 ~col:53

let test_d007_container =
  check_d007 "bad_d007_container_insert.ml" ~line:4 ~col:13

let test_d007_return = check_d007 "bad_d007_return_escape.ml" ~line:4 ~col:42
let test_d007_double_free = check_d007 "bad_d007_double_free.ml" ~line:4 ~col:27
let test_d007_free_alias = check_d007 "bad_d007_free_alias.ml" ~line:6 ~col:27

let test_d007_good_copy () =
  check_rules "copy-then-retain is sanctioned" "good_d007_copy_then_retain.ml"
    []

let test_d007_good_readonly () =
  check_rules "read-only handler is the contract" "good_d007_readonly_handler.ml"
    []

let test_d007_good_drop_hook () =
  check_rules "drop hook that copies" "good_d007_drop_hook_copy.ml" []

let test_d007_payload_arg =
  check_d007 "bad_d007_payload_arg.ml" ~line:10 ~col:7

(* --- D008: closure-per-event scheduling --- *)

(* The bad fixture arms two closure events; both must be flagged at
   the call identifier (exact line and column), in source order. *)
let test_d008_closure_event () =
  match findings_of "bad_d008_closure_event.ml" with
  | [ a; b ] ->
    Alcotest.(check (list rule)) "rules" [ L.D008; L.D008 ] [ a.L.rule; b.L.rule ];
    Alcotest.(check (list int)) "lines" [ 6; 10 ] [ a.L.line; b.L.line ];
    Alcotest.(check (list int)) "cols" [ 5; 5 ] [ a.L.col; b.L.col ]
  | fs ->
    Alcotest.failf "expected exactly two D008 findings, got %d:\n%s"
      (List.length fs)
      (String.concat "\n" (List.map L.pp_finding fs))

let test_d008_typed_event_clean () =
  check_rules "Timer/Event arms do not trip D008" "good_d008_typed_event.ml" []

(* Scheduling a closure that captures a packet is both escapes at
   once: the D007 capture and the D008 closure arm. *)
let test_d008_on_capture_fixture () =
  check_rules "closure capture also arms a closure"
    "bad_d007_closure_capture.ml" [ L.D008; L.D007 ]

(* --- clean code and built-in exemptions --- *)

let test_clean_local_state () =
  check_rules "per-call state is fine" "clean_local_state.ml" []

let test_exempt_sim_ctx () =
  check_rules "sim_ctx.ml may own state" "sim_ctx.ml" []

let test_exempt_proc_pool () =
  check_rules "proc_pool.ml may spawn processes and use Domain"
    "proc_pool.ml" []

let test_clean_file_sink () =
  (* D004 is scoped to console I/O: a file-writing sink (open_out,
     fprintf to a channel — the --out artifact layer) is deliberately
     outside the rule. *)
  check_rules "file sinks are not console output" "clean_file_sink.ml" []

(* --- typed-tree precision: cmt bookkeeping --- *)

let test_cmt_source_recorded () =
  let l = L.lint_cmt (cmt_of "bad_d001_ref.ml") in
  match l.L.cl_source with
  | Some s ->
    Alcotest.(check bool)
      "cmt records its .ml source" true
      (L.same_source s (src_of "bad_d001_ref.ml"))
  | None -> Alcotest.fail "implementation cmt must carry its source path"

let test_alias_module_skipped () =
  (* The library's generated alias module (built from a .ml-gen file)
     holds no user source: it must lint to nothing and claim no
     coverage. *)
  let l =
    L.lint_cmt
      (String.concat Filename.dir_sep
         [ "fixtures"; ".simlint_fixtures.objs"; "byte";
           "simlint_fixtures.cmt" ])
  in
  Alcotest.(check bool) "no source claimed" true (l.L.cl_source = None);
  Alcotest.(check int) "no findings" 0 (List.length l.L.cl_findings)

let test_same_source () =
  Alcotest.(check bool)
    "suffix match" true
    (L.same_source "fixtures/bad_d001_ref.ml"
       "tools/simlint/test/fixtures/bad_d001_ref.ml");
  Alcotest.(check bool)
    "component boundaries respected" false
    (L.same_source "res/bad_d001_ref.ml"
       "tools/simlint/test/fixtures/bad_d001_ref.ml");
  Alcotest.(check bool)
    "different basenames differ" false
    (L.same_source "fixtures/bad_d001_ref.ml" "fixtures/bad_d002_clock.ml")

(* --- finding formatting --- *)

let test_finding_format () =
  match findings_of "bad_d001_ref.ml" with
  | [ f ] ->
    Alcotest.(check string)
      "file:line:col [RULE] prefix"
      "tools/simlint/test/fixtures/bad_d001_ref.ml:2:14 [D001]"
      (String.concat " "
         (match String.split_on_char ' ' (L.pp_finding f) with
         | loc :: rule :: _ -> [ loc; rule ]
         | _ -> []))
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* --- allowlist --- *)

let entry ?(line = 1) file r : L.allow_entry =
  { a_file = file; a_rule = r; a_line = line }

let test_allow_suppresses () =
  let findings = findings_of "bad_d001_ref.ml" in
  let kept, stale =
    L.apply_allow [ entry (src_of "bad_d001_ref.ml") L.D001 ] findings
  in
  Alcotest.(check int) "suppressed" 0 (List.length kept);
  Alcotest.(check int) "entry used" 0 (List.length stale)

let test_allow_wrong_rule_is_stale () =
  let findings = findings_of "bad_d001_ref.ml" in
  let kept, stale =
    L.apply_allow [ entry (src_of "bad_d001_ref.ml") L.D004 ] findings
  in
  Alcotest.(check int) "finding kept" 1 (List.length kept);
  Alcotest.(check int) "entry stale" 1 (List.length stale)

let test_allow_file_parsing () =
  let tmp = Filename.temp_file "simlint_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc
        "# comment\n\n  lib/experiments/report.ml:D004  # trailing\n./x.ml:D001\n";
      close_out oc;
      match L.parse_allow_file tmp with
      | [ a; b ] ->
        Alcotest.(check string) "path" "lib/experiments/report.ml" a.L.a_file;
        Alcotest.(check bool) "rule" true (a.L.a_rule = L.D004);
        Alcotest.(check string) "./ stripped" "x.ml" b.L.a_file;
        Alcotest.(check bool) "rule 2" true (b.L.a_rule = L.D001)
      | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es))

let test_allow_rejects_garbage () =
  let tmp = Filename.temp_file "simlint_allow" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "lib/foo.ml:D999\n";
      close_out oc;
      Alcotest.check_raises "unknown rule"
        (L.Allow_syntax "line 1: unknown rule \"D999\" (expected D001-D008)")
        (fun () -> ignore (L.parse_allow_file tmp)))

(* --- tree scanning --- *)

let test_scan_tree () =
  let cmts, mls = L.scan_tree "fixtures" in
  Alcotest.(check bool) "finds all fixture sources" true (List.length mls >= 20);
  Alcotest.(check bool)
    "finds the cmts inside .objs" true
    (List.length cmts >= List.length mls);
  Alcotest.(check (list string)) "cmts sorted" (List.sort compare cmts) cmts;
  Alcotest.(check (list string)) "mls sorted" (List.sort compare mls) mls;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("cmt file: " ^ f) true (Filename.check_suffix f ".cmt"))
    cmts;
  (* every fixture source is covered by some analysed cmt — the
     invariant the CLI's coverage warning enforces for lib/ *)
  let sources =
    List.filter_map (fun c -> (L.lint_cmt c).L.cl_source) cmts
  in
  List.iter
    (fun ml ->
      Alcotest.(check bool)
        ("covered: " ^ ml) true
        (List.exists (L.same_source ml) sources))
    mls

let () =
  Alcotest.run "simlint"
    [
      ( "rules",
        [
          Alcotest.test_case "D001 toplevel ref" `Quick test_d001_ref;
          Alcotest.test_case "D001 containers" `Quick test_d001_containers;
          Alcotest.test_case "D001 mutable record" `Quick test_d001_mutable_record;
          Alcotest.test_case "D001 nested module" `Quick test_d001_nested_module;
          Alcotest.test_case "D002 Random" `Quick test_d002_random;
          Alcotest.test_case "D002 wall clock" `Quick test_d002_clock;
          Alcotest.test_case "D003 polymorphic hash" `Quick test_d003_polyhash;
          Alcotest.test_case "D004 console output" `Quick test_d004_print;
          Alcotest.test_case "D005 concurrency" `Quick test_d005_domain;
          Alcotest.test_case "D006 process spawning" `Quick test_d006_spawn;
        ] );
      ( "d007",
        [
          Alcotest.test_case "field store" `Quick test_d007_field_store;
          Alcotest.test_case "closure capture" `Quick test_d007_closure;
          Alcotest.test_case "container insert" `Quick test_d007_container;
          Alcotest.test_case "return escape" `Quick test_d007_return;
          Alcotest.test_case "double free" `Quick test_d007_double_free;
          Alcotest.test_case "free of alias" `Quick test_d007_free_alias;
          Alcotest.test_case "good: copy then retain" `Quick test_d007_good_copy;
          Alcotest.test_case "good: read-only handler" `Quick
            test_d007_good_readonly;
          Alcotest.test_case "good: drop hook copies" `Quick
            test_d007_good_drop_hook;
          Alcotest.test_case "deferred payload arg" `Quick test_d007_payload_arg;
        ] );
      ( "d008",
        [
          Alcotest.test_case "closure events flagged" `Quick
            test_d008_closure_event;
          Alcotest.test_case "typed arms clean" `Quick
            test_d008_typed_event_clean;
          Alcotest.test_case "capture fixture trips both" `Quick
            test_d008_on_capture_fixture;
        ] );
      ( "exemptions",
        [
          Alcotest.test_case "local state clean" `Quick test_clean_local_state;
          Alcotest.test_case "sim_ctx exempt from D001" `Quick test_exempt_sim_ctx;
          Alcotest.test_case "proc_pool exempt from D006" `Quick test_exempt_proc_pool;
          Alcotest.test_case "file sinks outside D004" `Quick test_clean_file_sink;
        ] );
      ( "cmt",
        [
          Alcotest.test_case "source recorded" `Quick test_cmt_source_recorded;
          Alcotest.test_case "alias module skipped" `Quick
            test_alias_module_skipped;
          Alcotest.test_case "same_source" `Quick test_same_source;
        ] );
      ( "output",
        [ Alcotest.test_case "finding format" `Quick test_finding_format ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppresses matching" `Quick test_allow_suppresses;
          Alcotest.test_case "wrong rule stays + stale" `Quick test_allow_wrong_rule_is_stale;
          Alcotest.test_case "file parsing" `Quick test_allow_file_parsing;
          Alcotest.test_case "rejects unknown rule" `Quick test_allow_rejects_garbage;
        ] );
      ( "scan",
        [ Alcotest.test_case "tree scan + coverage" `Quick test_scan_tree ] );
    ]

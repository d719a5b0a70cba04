(* Tests for the structured result sinks: table projection, CSV/JSON
   rendering (including non-finite floats, which JSON cannot
   represent), file artifacts, and the run manifest. *)

module Sink = Sim_experiments.Sink
module Scale = Sim_experiments.Scale

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_has name hay needle =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" name needle hay

(* One row type exercising all three cell kinds plus CSV quoting and
   JSON null. *)
let sample_table () =
  Sink.table ~name:"sample"
    ~columns:
      [
        Sink.column "id" Sink.int (fun (i, _, _) -> i);
        Sink.column "value" Sink.float (fun (_, v, _) -> v);
        Sink.column "tag" Sink.str (fun (_, _, t) -> t);
      ]
    [ (1, 1.5, "plain"); (2, Float.nan, "a,b") ]

let test_table_projection () =
  let t = sample_table () in
  Alcotest.(check string) "name" "sample" (Sink.name t);
  Alcotest.(check (list string)) "columns" [ "id"; "value"; "tag" ]
    (Sink.columns t);
  Alcotest.(check int) "row count" 2 (List.length (Sink.rows t))

let test_csv_rendering () =
  Alcotest.(check string) "document"
    "id,value,tag\n1,1.5,plain\n2,nan,\"a,b\"\n"
    (Sink.csv_string (sample_table ()))

let test_json_rendering () =
  let j = Sink.json_string (sample_table ()) in
  check_has "name field" j "\"name\": \"sample\"";
  check_has "columns" j "\"columns\": [\"id\", \"value\", \"tag\"]";
  check_has "finite row" j "[1, 1.5, \"plain\"]";
  (* NaN has no JSON encoding; it must become null, and the comma in
     the tag must survive inside the string literal. *)
  check_has "nan row" j "[2, null, \"a,b\"]"

let test_json_escaping () =
  let t =
    Sink.table ~name:"esc"
      ~columns:[ Sink.column "s" Sink.str Fun.id ]
      [ "he said \"hi\"\nbye\\" ]
  in
  check_has "escaped string" (Sink.json_string t)
    "\"he said \\\"hi\\\"\\nbye\\\\\"";
  (* Infinities are as unrepresentable as NaN. *)
  let inf =
    Sink.table ~name:"inf"
      ~columns:[ Sink.column "v" Sink.float Fun.id ]
      [ Float.infinity; Float.neg_infinity ]
  in
  check_has "inf rows" (Sink.json_string inf) "[null],\n    [null]"

let test_write_artifacts () =
  let dir = Filename.temp_file "sink_artifacts" "" in
  Sys.remove dir;
  (* Sink.write must create the missing directory itself. *)
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let written = Sink.write ~dir (sample_table ()) in
      Alcotest.(check (list string)) "basenames, csv first"
        [ "sample.csv"; "sample.json" ] written;
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " exists") true
            (Sys.file_exists (Filename.concat dir f)))
        written;
      (* Overwriting into an existing dir is fine (re-runs). *)
      ignore (Sink.write ~dir (sample_table ()) : string list);
      let ic = open_in (Filename.concat dir "sample.csv") in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check string) "csv content" "id,value,tag" header)

let manifest_entries =
  [
    {
      Sink.e_name = "fig1a";
      e_artifacts = [ "fig1a.csv"; "fig1a.json" ];
      e_points =
        [
          {
            Sink.p_label = "subflows=1";
            p_seconds = 0.25;
            p_end = Some (0.5, "shorts-closed");
          };
          { Sink.p_label = "subflows=2"; p_seconds = 0.5; p_end = None };
        ];
    };
    { Sink.e_name = "ext-coexist"; e_artifacts = []; e_points = [] };
  ]

let test_manifest () =
  let m =
    Sink.manifest_string ~scale:Scale.tiny ~jobs:4 ~git:(Some "abc123-dirty")
      ~total_seconds:1.5 manifest_entries
  in
  check_has "tool" m "\"tool\": \"mmptcp_sim\"";
  check_has "scale seed" m "\"seed\": 3";
  check_has "scale horizon" m "\"horizon_s\": 2";
  check_has "jobs" m "\"jobs\": 4";
  check_has "git" m "\"git\": \"abc123-dirty\"";
  check_has "total" m "\"total_seconds\": 1.5";
  (* Per-experiment seconds is the sum of its point durations. *)
  check_has "summed seconds" m "\"seconds\": 0.75";
  check_has "point timing and end" m
    "{\"label\": \"subflows=1\", \"seconds\": 0.25, \"sim_end_s\": 0.5, \
     \"end\": \"shorts-closed\"}";
  check_has "no end when unknown" m "{\"label\": \"subflows=2\", \"seconds\": 0.5}";
  check_has "empty experiment" m "\"ext-coexist\""

let test_manifest_no_git () =
  let m =
    Sink.manifest_string ~scale:Scale.tiny ~jobs:1 ~git:None ~total_seconds:0.
      []
  in
  check_has "null git" m "\"git\": null";
  check_has "empty experiments" m "\"experiments\": [\n  ]"

let () =
  Alcotest.run "sink"
    [
      ( "table",
        [
          Alcotest.test_case "projection" `Quick test_table_projection;
          Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
      ( "files",
        [ Alcotest.test_case "write artifacts" `Quick test_write_artifacts ] );
      ( "manifest",
        [
          Alcotest.test_case "contents" `Quick test_manifest;
          Alcotest.test_case "no git" `Quick test_manifest_no_git;
        ] );
    ]

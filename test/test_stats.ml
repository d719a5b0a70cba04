(* Tests for the statistics library. *)

module Summary = Sim_stats.Summary
module Histogram = Sim_stats.Histogram
module Table = Sim_stats.Table

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_summary_known_values () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_int "n" 8 s.Summary.n;
  check_float "mean" 5. s.Summary.mean;
  check_float "min" 2. s.Summary.min;
  check_float "max" 9. s.Summary.max;
  (* Sample stddev of this classic dataset: sqrt(32/7). *)
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32. /. 7.)) s.Summary.stddev

let test_summary_single () =
  let s = Summary.of_array [| 42. |] in
  check_float "mean" 42. s.Summary.mean;
  check_float "stddev" 0. s.Summary.stddev;
  check_float "p99" 42. s.Summary.p99

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty")
    (fun () -> ignore (Summary.of_array [||]))

let test_percentiles () =
  let sorted = Array.init 101 float_of_int in
  check_float "p50" 50. (Summary.percentile sorted 50.);
  check_float "p0" 0. (Summary.percentile sorted 0.);
  check_float "p100" 100. (Summary.percentile sorted 100.);
  check_float "p90" 90. (Summary.percentile sorted 90.)

let test_percentile_interpolates () =
  let sorted = [| 10.; 20. |] in
  check_float "midpoint" 15. (Summary.percentile sorted 50.)

let prop_summary_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun l ->
      let s = Summary.of_list l in
      s.Summary.min <= s.Summary.mean +. 1e-9
      && s.Summary.mean <= s.Summary.max +. 1e-9
      && s.Summary.p50 <= s.Summary.p90 +. 1e-9
      && s.Summary.p90 <= s.Summary.p99 +. 1e-9)

let prop_stddev_nonneg =
  QCheck.Test.make ~name:"stddev non-negative" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 100.))
    (fun l -> Summary.stddev (Array.of_list l) >= 0.)

let test_histogram_buckets () =
  let h = Histogram.create ~lo:0. ~hi:100. ~buckets:10 in
  Histogram.add h 5.;
  Histogram.add h 15.;
  Histogram.add h 15.5;
  Histogram.add h 99.9;
  Histogram.add h 150.;
  check_int "total" 5 (Histogram.count h);
  let counts = Histogram.bucket_counts h in
  check_int "bucket 0" 1 counts.(0);
  check_int "bucket 1" 2 counts.(1);
  check_int "bucket 9" 1 counts.(9);
  check_int "overflow" 1 (Histogram.overflow h)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:0. ~hi:10. ~buckets:5 in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "bucket 0" (0., 2.)
    (Histogram.bucket_bounds h 0);
  let lo, hi = Histogram.bucket_bounds h 5 in
  check_float "overflow lo" 10. lo;
  check_bool "overflow hi" true (hi = infinity)

let test_histogram_underflow_clamps () =
  let h = Histogram.create ~lo:10. ~hi:20. ~buckets:2 in
  Histogram.add h 3.;
  check_int "clamped to first bucket" 1 (Histogram.bucket_counts h).(0)

let test_histogram_merge () =
  let a = Histogram.create ~lo:0. ~hi:100. ~buckets:10 in
  let b = Histogram.create ~lo:0. ~hi:100. ~buckets:10 in
  List.iter (Histogram.add a) [ 5.; 15.; 150. ];
  List.iter (Histogram.add b) [ 5.; 25.; 99. ];
  let m = Histogram.merge a b in
  check_int "merged total" 6 (Histogram.count m);
  let counts = Histogram.bucket_counts m in
  check_int "bucket 0 summed" 2 counts.(0);
  check_int "bucket 1 from a" 1 counts.(1);
  check_int "bucket 2 from b" 1 counts.(2);
  check_int "overflow from a" 1 (Histogram.overflow m);
  (* Inputs untouched. *)
  check_int "a total unchanged" 3 (Histogram.count a);
  check_int "b total unchanged" 3 (Histogram.count b)

let test_histogram_merge_mismatch_rejected () =
  let err = Invalid_argument "Histogram.merge: mismatched bucket layout" in
  let base = Histogram.create ~lo:0. ~hi:100. ~buckets:10 in
  Alcotest.check_raises "different lo" err (fun () ->
      ignore
        (Histogram.merge base (Histogram.create ~lo:1. ~hi:100. ~buckets:10)));
  Alcotest.check_raises "different hi" err (fun () ->
      ignore
        (Histogram.merge base (Histogram.create ~lo:0. ~hi:50. ~buckets:10)));
  Alcotest.check_raises "different buckets" err (fun () ->
      ignore
        (Histogram.merge base (Histogram.create ~lo:0. ~hi:100. ~buckets:5)))

let prop_histogram_merge_is_concat =
  QCheck.Test.make ~name:"merge equals adding both sample sets" ~count:200
    QCheck.(
      pair (list (float_bound_exclusive 200.)) (list (float_bound_exclusive 200.)))
    (fun (la, lb) ->
      let a = Histogram.create ~lo:0. ~hi:100. ~buckets:7 in
      let b = Histogram.create ~lo:0. ~hi:100. ~buckets:7 in
      List.iter (Histogram.add a) la;
      List.iter (Histogram.add b) lb;
      let m = Histogram.merge a b in
      let direct = Histogram.create ~lo:0. ~hi:100. ~buckets:7 in
      List.iter (Histogram.add direct) (la @ lb);
      Histogram.bucket_counts m = Histogram.bucket_counts direct
      && Histogram.count m = Histogram.count direct)

let prop_histogram_conserves_count =
  QCheck.Test.make ~name:"histogram conserves count" ~count:200
    QCheck.(list (float_bound_exclusive 200.))
    (fun l ->
      let h = Histogram.create ~lo:0. ~hi:100. ~buckets:7 in
      List.iter (Histogram.add h) l;
      Array.fold_left ( + ) 0 (Histogram.bucket_counts h) = List.length l)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_table_renders () =
  let s =
    Table.render ~header:[ "proto"; "mean"; "sd" ]
      [ [ "mptcp"; "126"; "425" ]; [ "mmptcp"; "116"; "101" ] ]
  in
  check_bool "has header" true (String.length s > 5 && String.sub s 0 5 = "proto");
  check_bool "contains row" true (contains ~needle:"mmptcp" s);
  check_bool "rows in insertion order" true
    (contains ~needle:"mptcp" s)

let test_table_arity_check () =
  Alcotest.check_raises "arity" (Invalid_argument "Table.render: arity mismatch")
    (fun () -> ignore (Table.render ~header:[ "a"; "b" ] [ [ "only one" ] ] : string))

let test_formatters () =
  Alcotest.(check string) "fms" "12.3" (Table.fms 12.34);
  Alcotest.(check string) "pct" "1.000%" (Table.pct 0.01)

module Csv = Sim_stats.Csv

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_to_string () =
  Alcotest.(check string) "document" "x,y\n1,2\n3,4\n"
    (Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ])

let test_csv_float_cell () =
  Alcotest.(check string) "six significant digits" "3.14159"
    (Csv.float_cell Float.pi);
  Alcotest.(check string) "integer-valued" "42" (Csv.float_cell 42.);
  (* Non-finite values must render as parseable tokens, not crash:
     the sink layer feeds raw simulation output straight through. *)
  Alcotest.(check string) "nan" "nan" (Csv.float_cell Float.nan);
  Alcotest.(check string) "inf" "inf" (Csv.float_cell Float.infinity);
  Alcotest.(check string) "-inf" "-inf" (Csv.float_cell Float.neg_infinity)

let test_csv_arity_mismatch () =
  let arity_error = Invalid_argument "Csv.to_string: row arity mismatch" in
  Alcotest.check_raises "short row" arity_error (fun () ->
      ignore (Csv.to_string ~header:[ "a"; "b" ] [ [ "1" ] ]));
  Alcotest.check_raises "long row" arity_error (fun () ->
      ignore (Csv.to_string ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "1"; "2"; "3" ] ]))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "known values" `Quick test_summary_known_values;
          Alcotest.test_case "single sample" `Quick test_summary_single;
          Alcotest.test_case "empty rejected" `Quick test_summary_empty_rejected;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "interpolation" `Quick test_percentile_interpolates;
          qt prop_summary_bounds;
          qt prop_stddev_nonneg;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "underflow clamps" `Quick test_histogram_underflow_clamps;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "merge mismatch rejected" `Quick
            test_histogram_merge_mismatch_rejected;
          qt prop_histogram_merge_is_concat;
          qt prop_histogram_conserves_count;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "arity" `Quick test_table_arity_check;
          Alcotest.test_case "formatters" `Quick test_formatters;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
          Alcotest.test_case "float cells" `Quick test_csv_float_cell;
          Alcotest.test_case "arity mismatch" `Quick test_csv_arity_mismatch;
        ] );
    ]

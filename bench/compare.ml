(* Regression gate over BENCH_engine.json files.

   Usage: compare BASELINE.json CURRENT.json
            [--threshold PCT] [--mw-threshold PCT]

   Exits 1 if any benchmark present in both files regressed by more
   than the time threshold (default 10%) in ns/run, or by more than
   the allocation threshold (default 10%) in minor words/run, or if a
   baseline benchmark is missing from the current run: retiring a
   benchmark deletes its baseline row in the same commit. A benchmark
   only in the current run is reported as new and passes.

   Minor words are gated as well as printed: the typed event path
   exists to hold allocation down, and a "faster but allocates more"
   trade must fail loudly. Since micro.ml pins its batching (warmup +
   fixed sampling), mw/run is reproducible run-to-run; tiny baselines
   (< 1000 words/run) are still exempt, where one boxed value moves
   the percentage more than any real change.

   The parser is matched to micro.ml's writer: a flat object, one
   benchmark per line, first quoted string the name, numeric fields
   given as `"key": value`. *)

let fail_usage () =
  prerr_endline
    "usage: compare BASELINE.json CURRENT.json [--threshold PCT] \
     [--mw-threshold PCT]";
  exit 2

(* Extract the float following `"key": ` in [line], if any. *)
let field_value line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let llen = String.length line in
  let rec find i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while !j < llen && line.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < llen
        && (match line.[!k] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true
           | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.sub line !j (!k - !j))
    end
    else find (i + 1)
  in
  find 0

let quoted_name line =
  match String.split_on_char '"' line with
  | _ :: name :: _ -> Some name
  | _ -> None

let parse_file path =
  let ic =
    try open_in path
    with Sys_error m ->
      prerr_endline ("compare: " ^ m);
      exit 2
  in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match (quoted_name line, field_value line "ns_per_run") with
       | Some name, Some ns when name <> "ns_per_run" ->
         let mw = Option.value ~default:0. (field_value line "mw_per_run") in
         rows := (name, (ns, mw)) :: !rows
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

(* Minor-words baselines below this are pure noise territory. *)
let mw_floor = 1000.

let () =
  let rec parse_args (pos, thr, mw_thr) = function
    | [] -> (List.rev pos, thr, mw_thr)
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0. -> parse_args (pos, t, mw_thr) rest
      | _ -> fail_usage ())
    | "--mw-threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0. -> parse_args (pos, thr, t) rest
      | _ -> fail_usage ())
    | a :: _ when String.length a > 1 && a.[0] = '-' -> fail_usage ()
    | a :: rest -> parse_args (a :: pos, thr, mw_thr) rest
  in
  let positional, threshold, mw_threshold =
    parse_args ([], 10., 10.) (List.tl (Array.to_list Sys.argv))
  in
  let baseline_path, current_path =
    match positional with [ b; c ] -> (b, c) | _ -> fail_usage ()
  in
  let baseline = parse_file baseline_path in
  let current = parse_file current_path in
  let regressions = ref 0 in
  Printf.printf "%-32s %12s %12s %8s\n" "benchmark" "baseline ns" "current ns"
    "delta";
  print_endline (String.make 68 '-');
  List.iter
    (fun (name, (cur_ns, cur_mw)) ->
      match List.assoc_opt name baseline with
      | None -> Printf.printf "%-32s %12s %12.1f %8s\n" name "(new)" cur_ns ""
      | Some (base_ns, base_mw) ->
        let delta = (cur_ns -. base_ns) /. base_ns *. 100. in
        let mw_delta =
          if base_mw > mw_floor then (cur_mw -. base_mw) /. base_mw *. 100.
          else 0.
        in
        let flag =
          if delta > threshold then begin
            incr regressions;
            "  REGRESSED"
          end
          else if mw_delta > mw_threshold then begin
            incr regressions;
            "  MW-REGRESSED"
          end
          else ""
        in
        Printf.printf "%-32s %12.1f %12.1f %+7.1f%%%s  (mw %.0f, %+.1f%%)\n"
          name base_ns cur_ns delta flag cur_mw mw_delta)
    current;
  let missing =
    List.filter (fun (name, _) -> not (List.mem_assoc name current)) baseline
  in
  List.iter (fun (name, _) -> Printf.printf "%-32s  MISSING\n" name) missing;
  if !regressions > 0 || missing <> [] then begin
    Printf.printf
      "\n%d benchmark(s) regressed more than %.0f%% (time) / %.0f%% (minor \
       words), %d baseline benchmark(s) missing\n"
      !regressions threshold mw_threshold (List.length missing);
    exit 1
  end
  else
    Printf.printf "\nno regression beyond %.0f%% (time) / %.0f%% (minor words)\n"
      threshold mw_threshold

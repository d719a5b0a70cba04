(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs the workload's simulation in fresh child processes (this same
   executable, with --child) for S seconds and prints every metric
   with its unit, then one JSON result line. With --trace 0 the
   metrics are the end-to-end ones (untraced runs, each followed by a
   set-up child); with --trace 1 the per-layer ones (untraced and
   traced runs, alternating). Each child runs one simulation on one
   thread, so its peak heap is that simulation's alone. *)

open Perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let child = ref ""
let input = ref 0

(* Scratch space inside the working directory: the traced run's
   spans and ledger artifacts, and the Runtime_events ring file. *)
let out_dir = Filename.concat ".perfbench" "out"

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measure for this long");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--child", Arg.Set_string child, "MODE internal: setup|sim|traced|ref");
    ("--input", Arg.Set_int input, "I internal: which of the seed's inputs a child runs");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* Run this executable as a child and read back the record it marshals. *)
let run_child ?(input = 0) mode : 'a =
  let args =
    [|
      Sys.executable_name; "--child"; mode; "--workload"; !workload; "--seed";
      string_of_int !seed; "--input"; string_of_int input;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  set_binary_mode_in ic true;
  let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  match (Unix.close_process_in ic, v) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> die "perfbench: %s child for %s failed" mode !workload

let child_main (w : Workload.t) =
  let cfg = w.config ~seed:(Workload.input_seed ~seed:!seed !input) in
  let reply v =
    set_binary_mode_out stdout true;
    Marshal.to_channel stdout v [];
    flush stdout
  in
  match !child with
  | "setup" -> reply (Measure.setup cfg : float)
  | "sim" -> reply (Measure.sim cfg : Measure.sim)
  | "ref" -> reply (Reference.time () : float)
  | "traced" ->
    Measure.mkdir_p out_dir;
    let label = Printf.sprintf "%s-seed%d-input%d" w.name !seed !input in
    reply (Measure.traced ~out_dir ~label cfg : Measure.traced)
  | m -> die "perfbench: unknown child mode %S" m

(* [step 0], [step 1], ... until [seconds] have passed and at least
   [min_steps] steps have run; the results in step order. *)
let repeat ~min_steps step =
  let t_end = Unix.gettimeofday () +. !seconds in
  let rec loop n acc =
    if n >= min_steps && Unix.gettimeofday () >= t_end then List.rev acc
    else loop (n + 1) (step n :: acc)
  in
  loop 0 []

(* A child's record paired with the time of a reference child that
   follows it, see Reference. *)
let with_ref x = (x, (run_child "ref" : float))

(* --trace 0: untraced runs of each input in turn, every input at
   least once, each followed by a set-up child on the same input; one
   list of runs per input, and the set-up times. A reference child runs
   before the first step and after every step, and each step is paired
   with the mean of the two either side of it: that halves the
   reference's own noise and centres it on the step. *)
let end_to_end () =
  let before = ref (run_child "ref" : float) in
  let steps =
    repeat ~min_steps:Workload.inputs (fun n ->
        let input = n mod Workload.inputs in
        let sim : Measure.sim = run_child ~input "sim" in
        let setup : float = run_child ~input "setup" in
        let after : float = run_child "ref" in
        let ref_s = (!before +. after) /. 2. in
        before := after;
        (input, (sim, ref_s), (setup, ref_s)))
  in
  let runs input =
    List.filter_map (fun (i, run, _) -> if i = input then Some run else None) steps
  in
  (List.init Workload.inputs runs, List.map (fun (_, _, s) -> s) steps)

(* --trace 1: the seed's first input, untraced and traced runs
   alternating so that the tracing overhead compares runs made under
   the same host conditions. *)
let layers () =
  let steps =
    repeat ~min_steps:2 (fun _ ->
        let sim = with_ref (run_child "sim" : Measure.sim) in
        (sim, with_ref (run_child "traced" : Measure.traced)))
  in
  (List.map fst steps, List.map snd steps)

let () =
  Arg.parse specs (fun a -> die "perfbench: unexpected argument %S" a) "perfbench";
  let w =
    match Workload.find Full !workload with
    | Some w -> w
    | None ->
      die "perfbench: unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) (Workload.all Full)))
  in
  if !child <> "" then child_main w
  else begin
    Measure.mkdir_p out_dir;
    (* The traced child's Runtime_events ring goes next to its spans;
       the runtime deletes it when the child exits. *)
    Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" out_dir;
    let report =
      match !trace with
      | 0 ->
        let inputs, setup_s = end_to_end () in
        Report.end_to_end ~setup_s inputs
      | 1 ->
        let untraced, traced = layers () in
        Report.per_layer untraced traced
      | n -> die "perfbench: --trace must be 0 or 1, not %d" n
    in
    Report.print ~workload:w.name report
  end

(* Command-line front end, generated from the experiment registry:
   every subcommand, the `all` body, `--list` and `all --only` derive
   from Sim_experiments.Registry.all. Adding an experiment touches
   only its module plus one registry line — nothing here. *)

open Cmdliner
module Scale = Sim_experiments.Scale
module Runner = Sim_experiments.Runner
module Registry = Sim_experiments.Registry
module Experiment = Sim_experiments.Experiment
module Scenario = Sim_workload.Scenario

(* [base] narrowed to the values [ok] accepts: anything else is a
   usage error naming the option, [want] saying what was expected. The
   library checks the same bounds, but a failure there surfaces as an
   internal error from inside a simulation. *)
let restrict base ok ~want =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S: must be %s" s want))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

(* A virtual-time span given in (fractional) nanoseconds, if it is at
   least 1 ns once truncated and fits a [Sim_time.t]. *)
let sim_time_of_ns ns =
  if Float.is_finite ns && ns >= 1. && ns < Float.of_int max_int then
    Some (Sim_engine.Sim_time.of_ns (int_of_float ns))
  else None

(* Virtual-time durations on the command line: a number with an ns,
   us, ms or s suffix, e.g. `--probe-interval 10ms`. *)
let duration_conv =
  let parse s =
    let suffixes = [ ("ns", 1.); ("us", 1e3); ("ms", 1e6); ("s", 1e9) ] in
    let matched =
      List.find_opt (fun (suf, _) -> String.ends_with ~suffix:suf s) suffixes
    in
    match matched with
    | None -> Error (`Msg "expected a duration such as 500us, 10ms or 1s")
    | Some (suf, mult) -> (
      let num = String.sub s 0 (String.length s - String.length suf) in
      match float_of_string_opt num with
      | Some v -> (
        match sim_time_of_ns (v *. mult) with
        | Some t -> Ok t
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "bad duration %S: must be at least 1ns and under 2^62ns" s)))
      | None -> Error (`Msg (Printf.sprintf "bad duration %S" s)))
  in
  let print ppf t =
    Format.fprintf ppf "%dns" (Sim_engine.Sim_time.to_ns t)
  in
  Arg.conv (parse, print)

let conns_conv =
  let parse s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    if parts = [] then Error (`Msg "empty connection list")
    else
      try Ok (List.map int_of_string parts)
      with Failure _ -> Error (`Msg "expected comma-separated connection ids")
  in
  Arg.conv
    ( parse,
      fun ppf cs ->
        Format.pp_print_string ppf
          (String.concat "," (List.map string_of_int cs)) )

let obs_term =
  let probe_interval =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "probe-interval" ] ~docv:"DUR"
          ~doc:
            "Sample every registered metric (cwnd, queue depths, subflow \
             state, scheduler backlog) each $(docv) of virtual time and \
             export the time series via --out. Durations take an ns/us/ms/s \
             suffix, e.g. 10ms.")
  in
  let probe =
    Arg.(
      value
      & opt (some conns_conv) None
      & info [ "probe" ] ~docv:"CONN,..."
          ~doc:
            "Restrict connection-scoped probes and events to these \
             connection ids (default: all connections). Queue and scheduler \
             gauges are always included.")
  in
  let ledger =
    Arg.(
      value & flag
      & info [ "ledger" ]
          ~doc:
            "Export the flow ledger: every flow's lifecycle (arrival, \
             handshake, phase switch, hybrid promotion, RTO/fast-retransmit \
             counts, bytes, completion, FCT) as per-flow CSV and JSONL plus \
             an FCT-percentile summary via --out. Every run records the \
             ledger, since all result tables are read off it; this flag \
             only exports it, and changes no other output. Identical across \
             --model and --jobs.")
  in
  let make probe_interval probe_conns ledger =
    { Scenario.default_obs with probe_interval; probe_conns; ledger }
  in
  Term.(const make $ probe_interval $ probe $ ledger)

let scale_term =
  let k =
    Arg.(
      value
      & opt (restrict int (fun k -> k >= 2 && k mod 2 = 0) ~want:"even and >= 2")
          Scale.small.Scale.k
      & info [ "k" ] ~doc:"FatTree arity (even).")
  in
  let oversub =
    Arg.(
      value
      & opt (restrict int (fun o -> o >= 1) ~want:">= 1") Scale.small.Scale.oversub
      & info [ "oversub" ] ~doc:"Hosts per edge uplink (1 = full bisection).")
  in
  let flows =
    Arg.(
      value
      & opt (restrict int (fun n -> n >= 1) ~want:">= 1") Scale.small.Scale.flows
      & info [ "flows" ] ~doc:"Total short flows to schedule.")
  in
  let rate =
    Arg.(
      value
      & opt (restrict float (fun r -> Float.is_finite r && r > 0.) ~want:"finite and > 0")
          Scale.small.Scale.rate
      & info [ "rate" ] ~doc:"Poisson arrival rate per short host (flows/s).")
  in
  let seed =
    Arg.(value & opt int Scale.small.Scale.seed & info [ "seed" ] ~doc:"Random seed.")
  in
  let horizon =
    Arg.(
      value
      & opt
          (restrict float
             (fun s -> sim_time_of_ns (s *. 1e9) <> None)
             ~want:"at least 1ns and under 2^62ns")
          Scale.small.Scale.horizon_s
      & info [ "horizon" ] ~doc:"Simulated seconds before the hard stop.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Run at paper scale (k=8, 512 servers, 20000 short flows). Takes \
             tens of minutes; overrides the other scale options.")
  in
  let tiny =
    Arg.(
      value & flag
      & info [ "tiny" ]
          ~doc:
            "Run at smoke scale (k=4 2:1, 40 flows, 2 s horizon — the CI \
             preset); overrides the other scale options.")
  in
  let model =
    let model_conv =
      Arg.conv
        ( (fun s ->
            match Scenario.model_of_string s with
            | Ok m -> Ok m
            | Error e -> Error (`Msg e)),
          fun ppf m -> Format.pp_print_string ppf (Scenario.model_name m) )
    in
    Arg.(
      value
      & opt model_conv Scenario.Packet
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Flow model serving the simulated transfers: $(b,packet) (the \
             default; full packet-level stacks), $(b,fluid) (flows as \
             max-min rate processes with analytic FCTs — orders of \
             magnitude faster at large scale) or $(b,hybrid)[:BYTES] \
             (packet-level until BYTES have been carried, default 100000, \
             fluid after, with residual capacity coupling).")
  in
  let make k oversub flows rate seed horizon_s full tiny model obs =
    let base =
      if full then Scale.full
      else if tiny then Scale.tiny
      else
        { Scale.k; oversub; flows; rate; seed; horizon_s;
          model = Scenario.Packet; obs = Scenario.default_obs }
    in
    { base with Scale.model; obs }
  in
  Term.(
    const make $ k $ oversub $ flows $ rate $ seed $ horizon $ full $ tiny
    $ model $ obs_term)

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg "JOBS must be >= 1")
    | None -> Error (`Msg "expected an integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_term =
  Arg.(
    value
    & opt jobs_conv (Runner.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the independent simulations on $(docv) worker processes, \
           each re-executing this binary with a private heap; 1 runs them \
           sequentially in this process. Output is identical for any \
           value; the default is the number of cores minus one.")

(* Hidden protocol flag: `mmptcp_sim <cmd> <args> --worker` turns the
   invocation into a Proc_pool worker serving job indices on stdin for
   the identical parent command line. *)
let worker_term =
  Arg.(value & flag & info [ "worker" ] ~docs:Manpage.s_none)

let prof_term =
  Arg.(
    value & flag
    & info [ "prof" ]
        ~doc:
          "Self-profile the run: wrap every experiment point in a \
           wall-clock + GC allocation span (measured in whichever \
           process ran the point) and write one \
           $(b,prof-EXPERIMENT) artifact per experiment with a TOTAL row. \
           Span values are host measurements, so they only render under \
           --out; without it a fixed note is printed instead.")

let out_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "Write each experiment's data series as CSV and JSON plus a run \
           manifest (scale, seeds, per-point wall-clock, git describe) into \
           $(docv), created if missing.")

(* Best-effort `git describe` for the manifest; None outside a work
   tree or without git. *)
let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None
  with _ -> None

(* The command line workers are spawned with: this invocation's argv
   (so they re-derive the same experiments, scale and seeds) plus the
   hidden --worker flag. argv.(0) is replaced by the executable's
   resolved path because Proc_pool does not search $PATH. *)
let worker_argv () =
  let argv = Array.copy Sys.argv in
  argv.(0) <- Sys.executable_name;
  Array.append argv [| "--worker" |]

let run_registry experiments jobs worker out prof scale =
  if worker then begin
    Registry.worker ~clock:Unix.gettimeofday scale experiments;
    0
  end
  else begin
    Registry.run ~clock:Unix.gettimeofday ?out ?git:(git_describe ())
      ~worker_argv:(worker_argv ()) ~prof ~jobs scale experiments;
    0
  end

let experiment_cmd e =
  let run jobs worker out prof scale =
    run_registry [ e ] jobs worker out prof scale
  in
  Cmd.v
    (Cmd.info (Experiment.name e) ~doc:(Experiment.doc e))
    Term.(
      const run $ jobs_term $ worker_term $ out_term $ prof_term
      $ scale_term)

let only_conv =
  let parse s =
    let requested =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun n -> n <> "")
    in
    if requested = [] then Error (`Msg "empty experiment list")
    else
      match Registry.select requested with
      | Error unknown ->
        Error
          (`Msg
            (Printf.sprintf "unknown experiment %s (run `mmptcp_sim --list`)"
               unknown))
      | Ok _ -> Ok requested
  in
  Arg.conv
    (parse, fun ppf ns -> Format.pp_print_string ppf (String.concat "," ns))

let all_cmd =
  let only =
    Arg.(
      value
      & opt (some only_conv) None
      & info [ "only" ] ~docv:"NAME,..."
          ~doc:
            "Restrict to a comma-separated subset of experiments; they run \
             and render in registry order regardless of the order given.")
  in
  let run only jobs worker out prof scale =
    let experiments =
      match only with
      | None -> Registry.all
      | Some requested -> (
        match Registry.select requested with
        | Ok es -> es
        | Error _ -> assert false (* validated by only_conv *))
    in
    run_registry experiments jobs worker out prof scale
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every experiment (or an --only subset) on one shared job \
          queue: all simulation points fan out together with no barrier \
          between experiments, and results render in registry order.")
    Term.(
      const run $ only $ jobs_term $ worker_term $ out_term $ prof_term
      $ scale_term)

let cmds = List.map experiment_cmd Registry.all @ [ all_cmd ]

(* `mmptcp_sim --list`: the registry, one name + doc per line. *)
let default_term =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered experiments and exit.")
  in
  let act list =
    if list then begin
      List.iter
        (fun e ->
          Printf.printf "%-16s %s\n" (Experiment.name e) (Experiment.doc e))
        Registry.all;
      `Ok 0
    end
    else `Help (`Pager, None)
  in
  Term.(ret (const act $ list_flag))

(* GC settings, pinned from measurement rather than left to the
   environment. On the fig1a suite the allocation-light event path
   (Sim_time as native int, reused timer entries) leaves the default
   minor heap (256k words) fastest: s=8M was 10-25% slower across
   three runs, s=32M and o=200 neutral-to-slower (see DESIGN.md §4e).
   Setting the measured-best values here keeps an inherited
   OCAMLRUNPARAM from silently changing benchmark numbers. *)
let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 }

let () =
  let info =
    Cmd.info "mmptcp_sim" ~version:"1.0.0"
      ~doc:
        "Packet-level reproduction of 'Short vs. Long Flows: A Battle That \
         Both Can Win' (SIGCOMM 2015)."
  in
  exit (Cmd.eval' (Cmd.group ~default:default_term info cmds))

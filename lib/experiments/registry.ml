(* The canonical experiment list and the shared execution path. The
   order is DESIGN.md's index and is load-bearing: `all` renders in
   this order, and `select` re-sorts any user subset into it so
   output order never depends on how a flag was spelled. *)

let all : Experiment.t list =
  [
    Fig1a.experiment;
    Fig1bc.fig1b;
    Fig1bc.fig1c;
    Summary_table.experiment;
    Ext_switching.experiment;
    Ext_load.experiment;
    Ext_hotspot.experiment;
    Ext_multihomed.experiment;
    Ext_coexist.experiment;
    Ext_dupack.experiment;
    Ext_topologies.experiment;
    Ext_matrices.experiment;
    Ext_sack.experiment;
    Ext_fluid_xval.experiment;
    Ext_scale.experiment;
  ]

let names () = List.map Experiment.name all

let find name = List.find_opt (fun e -> Experiment.name e = name) all

let select requested =
  match List.find_opt (fun n -> Option.is_none (find n)) requested with
  | Some unknown -> Error unknown
  | None ->
    Ok (List.filter (fun e -> List.mem (Experiment.name e) requested) all)

let point_failed j exn =
  Runner.Point_failed
    {
      experiment = Experiment.job_experiment j;
      point = Experiment.job_label j;
      exn;
    }

(* jobs = 1: run and accept every point here, in queue order, so the
   first failure is the earliest point's and keeps its backtrace. *)
let run_here queue =
  Array.iter
    (fun j ->
      match Experiment.run_job j with
      | payload -> Experiment.accept_job j payload
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Printexc.raise_with_backtrace (point_failed j e) bt)
    queue

(* jobs > 1: fan the queue out to forked workers, which run the same
   job closures. Results are accepted as replies arrive; failures are
   collected and the earliest-index one re-raised after the pool
   drains, so the error names the same point as at jobs = 1. *)
let run_forked ~jobs queue =
  let failures = ref [] in
  Sim_engine.Proc_pool.run ~jobs ~n:(Array.length queue)
    ~job:(fun i -> Experiment.run_job queue.(i))
    ~deliver:(fun i outcome ->
      match outcome with
      | Ok payload -> Experiment.accept_job queue.(i) payload
      | Error cause -> failures := (i, cause) :: !failures);
  match List.sort compare !failures with
  | [] -> ()
  | (i, cause) :: _ -> raise (point_failed queue.(i) (Runner.Remote cause))

let run ?clock ?out ?git ?(prof = false) ~jobs scale experiments =
  if jobs < 1 then invalid_arg "Registry.run: jobs must be >= 1";
  (* Before any point runs: an unusable --out fails now, not after
     the whole sweep. *)
  Option.iter Sink.ensure_dir out;
  let now () = match clock with Some c -> c () | None -> 0. in
  let t0 = now () in
  let instances =
    List.map (fun e -> Experiment.instantiate ?clock e scale) experiments
  in
  (* One flat queue: points of all experiments interleave freely over
     the workers; the pool draining is the barrier that makes every
     instance's result slots readable. *)
  let queue =
    Array.of_list (List.concat_map Experiment.instance_jobs instances)
  in
  if jobs = 1 then run_here queue else run_forked ~jobs queue;
  (* Render in registry order only after everything ran: this is what
     keeps stdout byte-identical at every job count. *)
  let artifacts =
    List.map
      (fun i ->
        let arts = Experiment.finish i in
        let arts =
          if prof then
            arts
            @ [
                Prof.artifact
                  ~experiment:(Experiment.instance_name i)
                  (Experiment.point_spans i);
              ]
          else arts
        in
        (i, arts))
      instances
  in
  match out with
  | None ->
    (* Span values are host-side and nondeterministic, so without an
       artifact directory to absorb them there is nothing
       reproducible to print — stdout stays byte-identical. *)
    if prof then Report.printf "[--prof: profile dropped — pass --out DIR]\n"
  | Some dir ->
    let entries =
      List.map
        (fun (inst, arts) ->
          {
            Sink.e_name = Experiment.instance_name inst;
            e_artifacts =
              List.concat_map (fun a -> Sink.write_artifact ~dir a) arts;
            e_points =
              List.map2
                (fun (p_label, sp) p_end ->
                  { Sink.p_label; p_seconds = sp.Prof.sp_wall_s; p_end })
                (Experiment.point_spans inst)
                (Experiment.point_ends inst);
          })
        artifacts
    in
    let manifest =
      Sink.write_manifest ~dir ~scale ~jobs ~git
        ~total_seconds:(now () -. t0) entries
    in
    Report.printf "[artifacts + %s written to %s]\n" manifest dir

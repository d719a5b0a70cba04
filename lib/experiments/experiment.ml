(* Experiments as data: the spec is what a module declares, an
   instance is the spec bound to a scale with slots for its results.
   The registry flattens many instances' jobs into one queue. A job
   runs its point to marshalled bytes (in this process or a forked
   worker) and accept_job stores them in the result and span slots,
   which finish reads once the whole queue has drained. *)

type ('p, 'r) spec = {
  name : string;
  doc : string;
  points : Scale.t -> 'p list;
  point_label : 'p -> string;
  run_point : Scale.t -> 'p -> 'r;
  render : Scale.t -> ('p * 'r) list -> Sink.table list;
  capture : 'r -> Sim_obs.Capture.t option;
  ledger : 'r -> Sim_obs.Flow_ledger.dump option;
  ending : 'r -> (Sim_engine.Sim_time.t * Sim_workload.Scenario.ending) option;
}

type t = E : ('p, 'r) spec -> t

let make ~name ~doc ~points ~point_label ~run_point ~render
    ?(ending = fun _ -> None) () =
  E { name; doc; points; point_label; run_point; render;
      capture = (fun _ -> None); ledger = (fun _ -> None); ending }

let scenario ~name ~doc ~points ~point_label ~config ~render =
  let module Scenario = Sim_workload.Scenario in
  E { name; doc; points; point_label;
      run_point = (fun scale p -> Scenario.run (config scale p));
      render;
      capture = (fun r -> r.Scenario.obs);
      ledger = (fun r -> r.Scenario.ledger);
      ending = (fun r -> Some (r.Scenario.duration, r.Scenario.ending)) }

let name (E s) = s.name
let doc (E s) = s.doc

type job = {
  j_label : string;
  j_owner : string;
  j_run : unit -> string;
  j_accept : string -> unit;
}

let job_label j = j.j_label
let job_experiment j = j.j_owner
let run_job j = j.j_run ()
let accept_job j payload = j.j_accept payload

type instance = {
  i_name : string;
  i_jobs : job list;
  i_finish : unit -> Sink.artifact list;
  i_point_spans : unit -> (string * Prof.span) list;
  i_point_ends : unit -> (float * string) option list;
}

let instance_name i = i.i_name
let instance_jobs i = i.i_jobs
let finish i = i.i_finish ()
let point_spans i = i.i_point_spans ()
let point_ends i = i.i_point_ends ()

let instantiate ?(clock = fun () -> 0.) (E s) scale =
  let points = Array.of_list (s.points scale) in
  let n = Array.length points in
  let labels = Array.map s.point_label points in
  let results = Array.make n None in
  let spans = Array.make n Prof.zero in
  let job i =
    {
      j_label = labels.(i);
      j_owner = s.name;
      (* Both closures live where ['r] is in scope, so the bytes a run
         produces unmarshal back at the matching slot's type — the only
         place Marshal's type-unsafety could bite, closed off by
         construction. The span prices [run_point] alone. *)
      j_run =
        (fun () ->
          let r, sp =
            Prof.measure ~clock (fun () -> s.run_point scale points.(i))
          in
          Marshal.to_string (sp, r) []);
      j_accept =
        (fun payload ->
          let sp, r = Marshal.from_string payload 0 in
          spans.(i) <- sp;
          results.(i) <- Some r);
    }
  in
  let pairs () =
    Array.to_list
      (Array.mapi
         (fun i p ->
           match results.(i) with
           | Some r -> (p, r)
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Experiment.finish: point [%s] of %s has not run" labels.(i)
                  s.name))
         points)
  in
  {
    i_name = s.name;
    i_jobs = List.init n job;
    i_finish =
      (fun () ->
        let prs = pairs () in
        let tables = List.map (fun t -> Sink.Table t) (s.render scale prs) in
        let captures =
          List.filter_map
            (fun (p, r) ->
              Option.map (fun c -> (s.point_label p, c)) (s.capture r))
            prs
        in
        let ledgers =
          List.filter_map
            (fun (p, r) ->
              Option.map (fun d -> (s.point_label p, d)) (s.ledger r))
            prs
        in
        tables
        @ Probe_sink.artifacts ~experiment:s.name captures
        @ Ledger_sink.artifacts ~experiment:s.name ledgers);
    i_point_spans =
      (fun () -> Array.to_list (Array.mapi (fun i l -> (l, spans.(i))) labels));
    i_point_ends =
      (fun () ->
        Array.to_list results
        |> List.map (fun r ->
               Option.bind r s.ending
               |> Option.map (fun (t, why) ->
                      ( Sim_engine.Sim_time.to_sec t,
                        Sim_workload.Scenario.ending_name why ))));
  }

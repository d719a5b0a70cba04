(* Experiments as data: the spec is what a module declares, an
   instance is the spec bound to a scale with slots for its results.
   The registry flattens many instances' jobs into one queue; result
   and timing slots are written by run_job (in-process) or accept_job
   (a worker process's marshalled reply), and read by finish once the
   whole queue has drained. *)

type ('p, 'r) spec = {
  name : string;
  doc : string;
  points : Scale.t -> 'p list;
  point_label : 'p -> string;
  run_point : Scale.t -> 'p -> 'r;
  render : Scale.t -> ('p * 'r) list -> Sink.table list;
  capture : 'r -> Sim_obs.Capture.t option;
  ledger : 'r -> Sim_obs.Flow_ledger.dump option;
}

type t = E : ('p, 'r) spec -> t

let make ~name ~doc ~points ~point_label ~run_point ~render
    ?(capture = fun _ -> None) ?(ledger = fun _ -> None) () =
  E { name; doc; points; point_label; run_point; render; capture; ledger }

let scenario ~name ~doc ~points ~point_label ~config ~render =
  let module Scenario = Sim_workload.Scenario in
  make ~name ~doc ~points ~point_label
    ~run_point:(fun scale p -> Scenario.run (config scale p))
    ~render
    ~capture:(fun r -> r.Scenario.obs)
    ~ledger:(fun r -> r.Scenario.ledger)
    ()

let name (E s) = s.name
let doc (E s) = s.doc

type job = {
  j_label : string;
  j_owner : string;
  j_run : unit -> unit;
  j_serial : unit -> string;
  j_accept : string -> unit;
}

let job_label j = j.j_label
let job_experiment j = j.j_owner
let run_job j = j.j_run ()

let run_job_serial j =
  match j.j_serial () with
  | payload -> Ok payload
  | exception e -> Error (Printexc.to_string e)

let accept_job j payload = j.j_accept payload

type instance = {
  i_name : string;
  i_jobs : job list;
  i_finish : unit -> Sink.artifact list;
  i_point_seconds : unit -> (string * float) list;
  i_point_spans : unit -> (string * Prof.span) list;
}

let instance_name i = i.i_name
let instance_jobs i = i.i_jobs
let finish i = i.i_finish ()
let point_seconds i = i.i_point_seconds ()
let point_spans i = i.i_point_spans ()

let instantiate ?(clock = fun () -> 0.) (E s) scale =
  let points = Array.of_list (s.points scale) in
  let n = Array.length points in
  let labels = Array.map s.point_label points in
  let results = Array.make n None in
  let seconds = Array.make n 0. in
  let spans = Array.make n Prof.zero in
  let job i =
    {
      j_label = labels.(i);
      j_owner = s.name;
      j_run =
        (fun () ->
          let r, sp =
            try Prof.measure ~clock (fun () -> s.run_point scale points.(i))
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              Printexc.raise_with_backtrace
                (Runner.Point_failed
                   { experiment = s.name; point = labels.(i); exn = e })
                bt
          in
          seconds.(i) <- sp.Prof.sp_wall_s;
          spans.(i) <- sp;
          results.(i) <- Some r);
      (* The serial triple lives where ['r] is in scope, so the bytes
         a worker produces unmarshal back at the matching slot's type
         in the coordinator — the only place Marshal's type-unsafety
         could bite, closed off by construction. *)
      j_serial =
        (fun () ->
          let r, sp =
            Prof.measure ~clock (fun () -> s.run_point scale points.(i))
          in
          Marshal.to_string (sp.Prof.sp_wall_s, sp, r) []);
      j_accept =
        (fun payload ->
          let dt, sp, r = Marshal.from_string payload 0 in
          seconds.(i) <- dt;
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
    i_point_seconds =
      (fun () ->
        Array.to_list (Array.mapi (fun i l -> (l, seconds.(i))) labels));
    i_point_spans =
      (fun () -> Array.to_list (Array.mapi (fun i l -> (l, spans.(i))) labels));
  }

exception Point_failed of { experiment : string; point : string; exn : exn }
exception Remote of string

let () =
  Printexc.register_printer (function
    | Point_failed { experiment; point; exn } ->
      Some
        (Printf.sprintf "experiment %s, point [%s]: %s" experiment point
           (Printexc.to_string exn))
    (* The payload is already a printed exception: render it verbatim
       so a failure reads the same whether it crossed a process
       boundary or not. *)
    | Remote cause -> Some cause
    | _ -> None)

let default_jobs = Sim_engine.Proc_pool.recommended_jobs

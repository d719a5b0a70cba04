(* Fixture named like the exempt module: neither D005 nor D006 may
   fire here. *)
let spawn argv =
  Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr

let clone () = Unix.fork ()

let cores () = Domain.recommended_domain_count ()

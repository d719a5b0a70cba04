type t = {
  size : int;
  mutable assigned : int;
  mutable received : int;  (* bytes delivered; each at most once *)
}

let create ~size =
  if size < 0 then invalid_arg "Dataplane.create: negative size";
  { size; assigned = 0; received = 0 }

let pull t ~max =
  if max <= 0 then invalid_arg "Dataplane.pull: max must be positive";
  let len = Int.min max (t.size - t.assigned) in
  t.assigned <- t.assigned + len;
  len

let assigned t = t.assigned

(* Dev-profile invariant: bytes delivered never run past the bytes
   [pull] has handed out, so no byte is counted twice. *)
let deliver t len =
  let before = t.received in
  if Sim_engine.Sanitizer_mode.on && before + len > t.assigned then
    failwith
      (Printf.sprintf "Dataplane.deliver: %d + %d bytes, past the %d pulled"
         before len t.assigned);
  t.received <- before + len;
  before < t.size && t.received >= t.size

let received_bytes t = t.received
let size t = t.size

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler

type t = {
  sched : Scheduler.t;
  size : int;
  mutable next_dsn : int;
  mutable received : int;  (* bytes delivered; each at most once *)
  mutable completed_at : Time.t option;
  on_complete : unit -> unit;
}

let create ~sched ~size ~on_complete =
  if size < 0 then invalid_arg "Dataplane.create: negative size";
  {
    sched;
    size;
    next_dsn = 0;
    received = 0;
    completed_at = None;
    on_complete;
  }

let pull t ~max =
  if max <= 0 then invalid_arg "Dataplane.pull: max must be positive";
  if t.next_dsn >= t.size then None
  else begin
    let len = Int.min max (t.size - t.next_dsn) in
    let dsn = t.next_dsn in
    t.next_dsn <- t.next_dsn + len;
    Some (dsn, len)
  end

let assigned t = t.next_dsn
let unassigned t = t.next_dsn < t.size

(* Dev-profile invariant: bytes delivered never run past the bytes
   [pull] has handed out. *)
let deliver t ~dsn ~len =
  if Sim_engine.Sanitizer_mode.on && dsn >= 0 && dsn + len > t.next_dsn then
    failwith
      (Printf.sprintf "Dataplane.deliver: bytes [%d, %d) past the %d pulled"
         dsn (dsn + len) t.next_dsn);
  if dsn >= 0 && t.completed_at = None then begin
    t.received <- t.received + len;
    if t.received >= t.size then begin
      t.completed_at <- Some (Scheduler.now t.sched);
      t.on_complete ()
    end
  end

let received_bytes t = t.received
let is_complete t = t.completed_at <> None
let completed_at t = t.completed_at
let size t = t.size

(* Fixture: raw concurrency primitives outside Proc_pool. *)
let run_both f g =
  let d = Domain.spawn f in
  let y = g () in
  (Domain.join d, y)

let guard = Mutex.create

let cell v = Atomic.make v

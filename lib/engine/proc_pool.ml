(* Worker-process pool. See the .mli for the wire protocol; the key
   liveness facts the code below relies on:

   - strict request/reply: a worker holds at most one assigned index,
     so between replies its reply pipe (and our buffered in_channel
     on it) is empty. [Unix.select] on the raw fds is therefore an
     accurate "a reply has started arriving" signal, and the blocking
     [Marshal.from_channel] that follows only waits for the tail of a
     message the worker is already flushing.
   - a forked child closes every parent-side pipe end it inherited,
     so a worker never holds a sibling's pipe open; a dead worker's
     reply pipe always reads EOF, and closing a worker's request pipe
     always reaches it.
   - every child is reaped exactly once ([reap] removes it from
     [live]; the [Fun.protect] finaliser only sees survivors). *)

type worker = {
  pid : int;
  to_worker : out_channel;
  from_worker : in_channel;
  from_fd : Unix.file_descr;
  mutable inflight : int option;
}

let recommended_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let rec select_retry fds =
  match Unix.select fds [] [] (-1.0) with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds

(* Child side: answer index requests on [req] until the parent closes
   it. Whatever [job] raises goes back as its printed form. *)
let serve ~job req rep =
  let ic = Unix.in_channel_of_descr req in
  let oc = Unix.out_channel_of_descr rep in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      let i = int_of_string line in
      let outcome =
        match job i with
        | payload -> Ok payload
        | exception e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc (i, (outcome : (string, string) result)) [];
      flush oc;
      loop ()
  in
  loop ()

(* Fork one worker. [live] are the workers forked before it, whose
   parent-side ends the child inherits and must close. The child never
   returns: it leaves with [_exit], skipping the [at_exit] handlers
   (buffered channels included) that belong to the parent. *)
let spawn ~job live =
  let req_read, req_write = Unix.pipe ~cloexec:true () in
  let rep_read, rep_write = Unix.pipe ~cloexec:true () in
  (* Unflushed output would otherwise be written twice if the child
     ever flushed it. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    List.iter
      (fun w ->
        Unix.close (Unix.descr_of_out_channel w.to_worker);
        Unix.close w.from_fd)
      live;
    Unix.close req_write;
    Unix.close rep_read;
    Unix._exit
      (match serve ~job req_read rep_write with () -> 0 | exception _ -> 2)
  | pid ->
    Unix.close req_read;
    Unix.close rep_write;
    let to_worker = Unix.out_channel_of_descr req_write in
    let from_worker = Unix.in_channel_of_descr rep_read in
    set_binary_mode_out to_worker true;
    set_binary_mode_in from_worker true;
    { pid; to_worker; from_worker; from_fd = rep_read; inflight = None }

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let run ~jobs ~n ~job ~deliver =
  if jobs < 1 then invalid_arg "Proc_pool.run: jobs must be >= 1";
  if n > 0 then begin
    (* A worker dying between assignment and flush must surface as a
       delivered Error, not kill us with SIGPIPE. *)
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let live = ref [] in
    let next = ref 0 in
    let delivered = ref 0 in
    let deliver i outcome =
      incr delivered;
      deliver i outcome
    in
    let reap w =
      live := List.filter (fun w' -> w'.pid <> w.pid) !live;
      (try close_out w.to_worker with Sys_error _ -> ());
      (try close_in w.from_worker with Sys_error _ -> ());
      let status = waitpid_retry w.pid in
      match w.inflight with
      | None -> ()
      | Some i ->
        w.inflight <- None;
        deliver i
          (Error
             (Printf.sprintf "worker process died mid-point (%s)"
                (describe_status status)))
    in
    (* Hand [w] the next pending index, or close its pipe when none
       remain. A send failure means the worker is already dead: reap
       it without consuming the index, so a survivor picks it up. *)
    let assign w =
      if !next >= n then begin
        w.inflight <- None;
        try close_out w.to_worker with Sys_error _ -> ()
      end
      else
        let i = !next in
        match
          output_string w.to_worker (string_of_int i);
          output_char w.to_worker '\n';
          flush w.to_worker
        with
        | () ->
          w.inflight <- Some i;
          incr next
        | exception Sys_error _ -> reap w
    in
    let handle_reply w =
      match
        (Marshal.from_channel w.from_worker : int * (string, string) result)
      with
      | i, outcome ->
        w.inflight <- None;
        deliver i outcome;
        assign w
      | exception (End_of_file | Failure _ | Sys_error _) -> reap w
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun w ->
            (try close_out w.to_worker with Sys_error _ -> ());
            (try close_in w.from_worker with Sys_error _ -> ());
            (* Already told to exit via EOF; the kill only guarantees
               waitpid cannot hang on a misbehaving worker. *)
            (try Unix.kill w.pid Sys.sigkill
             with Unix.Unix_error _ -> ());
            ignore (waitpid_retry w.pid))
          !live;
        live := [];
        Sys.set_signal Sys.sigpipe old_sigpipe)
      (fun () ->
        for _ = 1 to min jobs n do
          live := spawn ~job !live :: !live
        done;
        List.iter assign (List.rev !live);
        while !delivered < n do
          if !live = [] then begin
            (* Every assigned index has been delivered (reply or reap),
               so only never-assigned ones remain. *)
            while !next < n do
              deliver !next (Error "no worker processes left");
              incr next
            done
          end
          else begin
            let busy = List.filter (fun w -> w.inflight <> None) !live in
            let ready = select_retry (List.map (fun w -> w.from_fd) busy) in
            List.iter
              (fun w -> if List.memq w.from_fd ready then handle_reply w)
              busy
          end
        done)
  end

(* Worker-process pool. See the .mli for the wire protocol; the key
   liveness facts the code below relies on:

   - strict request/reply: a worker holds at most one assigned index,
     so between replies its stdout pipe (and our buffered in_channel
     on it) is empty. [Unix.select] on the raw fds is therefore an
     accurate "a reply has started arriving" signal, and the blocking
     [Marshal.from_channel] that follows only waits for the tail of a
     message the worker is already flushing.
   - parent-side pipe ends are close-on-exec, so a worker never holds
     a sibling's pipe open; a dead worker's stdout always reads EOF.
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

let spawn worker_argv =
  let in_read, in_write = Unix.pipe () in
  let out_read, out_write = Unix.pipe () in
  (* Keep our ends out of future workers: an inherited write end would
     hold a dead sibling's pipe open and hide its EOF. *)
  Unix.set_close_on_exec in_write;
  Unix.set_close_on_exec out_read;
  let pid =
    Unix.create_process worker_argv.(0) worker_argv in_read out_write
      Unix.stderr
  in
  Unix.close in_read;
  Unix.close out_write;
  let to_worker = Unix.out_channel_of_descr in_write in
  let from_worker = Unix.in_channel_of_descr out_read in
  set_binary_mode_out to_worker true;
  set_binary_mode_in from_worker true;
  { pid; to_worker; from_worker; from_fd = out_read; inflight = None }

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let run ~jobs ~worker_argv ~n ~deliver =
  if jobs < 1 then invalid_arg "Proc_pool.run: jobs must be >= 1";
  if n > 0 then begin
    (* A worker dying between assignment and flush must surface as a
       delivered Error, not kill us with SIGPIPE. *)
    let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let live = ref (List.init (min jobs n) (fun _ -> spawn worker_argv)) in
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
    (* Hand [w] the next pending index, or close its stdin when none
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

let serve ~run =
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      let i = int_of_string (String.trim line) in
      Marshal.to_channel stdout (i, (run i : (string, string) result)) [];
      flush stdout;
      loop ()
  in
  loop ()

(* Per-simulation flow lifecycle ledger. See flow_ledger.mli. *)

type entry = {
  e_conn : int;
  e_src : int;
  e_dst : int;
  e_size : int;
  e_long : bool;
  e_start_ns : int;
  e_handshake_ns : int;
  e_switch_ns : int;
  e_promote_ns : int;
  e_complete_ns : int;
  e_rtos : int;
  e_fast_rtxs : int;
  e_bytes : int;
}

type dump = entry array

(* One mutable record per flow, created at [on_start] and updated in
   place by the lifecycle hooks; [dump] freezes them into [entry]s.
   Kept separate from [entry] so the dump is plain immutable data
   (marshallable across the process-pool boundary). *)
type cell = {
  c_conn : int;
  c_src : int;
  c_dst : int;
  c_size : int;
  c_long : bool;
  c_start_ns : int;
  mutable c_handshake_ns : int;
  mutable c_switch_ns : int;
  mutable c_promote_ns : int;
  mutable c_complete_ns : int;
  mutable c_rtos : int;
  mutable c_fast_rtxs : int;
  mutable c_bytes : int;
}

type t = {
  mutable on : bool;
  mutable clock_ns : unit -> int;
  (* conn id -> index into [cells], -1 when unknown. Conn ids are the
     small dense ints drawn from [Sim_ctx.fresh_conn_id], so a direct
     array beats a hashtable and allocates nothing per lookup. *)
  mutable slot_of_conn : int array;
  mutable cells : cell array;  (* arrival order *)
  mutable n : int;
}

let no_clock () = 0

let create () =
  { on = false; clock_ns = no_clock; slot_of_conn = [||]; cells = [||]; n = 0 }

let enable t ~clock_ns =
  t.on <- true;
  t.clock_ns <- clock_ns;
  if Array.length t.slot_of_conn = 0 then t.slot_of_conn <- Array.make 1024 (-1)

let active t = t.on

let ensure_conn t conn =
  let len = Array.length t.slot_of_conn in
  if conn >= len then begin
    let len' = max (conn + 1) (2 * len) in
    let a = Array.make len' (-1) in
    Array.blit t.slot_of_conn 0 a 0 len;
    t.slot_of_conn <- a
  end

let slot t conn =
  if conn < 0 || conn >= Array.length t.slot_of_conn then -1
  else t.slot_of_conn.(conn)

let on_start t ~conn ~src ~dst ~size ~long =
  if t.on then begin
    ensure_conn t conn;
    if t.slot_of_conn.(conn) < 0 then begin
      let c =
        {
          c_conn = conn;
          c_src = src;
          c_dst = dst;
          c_size = size;
          c_long = long;
          c_start_ns = t.clock_ns ();
          c_handshake_ns = -1;
          c_switch_ns = -1;
          c_promote_ns = -1;
          c_complete_ns = -1;
          c_rtos = 0;
          c_fast_rtxs = 0;
          c_bytes = 0;
        }
      in
      let cap = Array.length t.cells in
      if t.n >= cap then begin
        let a = Array.make (max 256 (2 * cap)) c in
        Array.blit t.cells 0 a 0 t.n;
        t.cells <- a
      end;
      t.cells.(t.n) <- c;
      t.slot_of_conn.(conn) <- t.n;
      t.n <- t.n + 1
    end
  end

let on_handshake t ~conn =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      (* First wins: MPTCP subflows share the parent conn id and each
         completes its own handshake; the flow is usable at the first. *)
      if c.c_handshake_ns < 0 then c.c_handshake_ns <- t.clock_ns ()
    end

let on_phase_switch t ~conn =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      if c.c_switch_ns < 0 then c.c_switch_ns <- t.clock_ns ()
    end

let on_promote t ~conn ~cont =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      if c.c_promote_ns < 0 then c.c_promote_ns <- t.clock_ns ();
      (* The packet stage finishing its [handoff_bytes] fires the
         transport's completion hook, but the flow continues in the
         fluid engine — promotion supersedes that premature completion;
         the aliased continuation will set the real one. *)
      c.c_complete_ns <- -1;
      ensure_conn t cont;
      if t.slot_of_conn.(cont) < 0 then t.slot_of_conn.(cont) <- s
    end

let on_rto t ~conn =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      c.c_rtos <- c.c_rtos + 1
    end

let on_fast_rtx t ~conn =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      c.c_fast_rtxs <- c.c_fast_rtxs + 1
    end

let on_complete t ~conn =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      if c.c_complete_ns < 0 then c.c_complete_ns <- t.clock_ns ()
    end

let add_bytes t ~conn bytes =
  if t.on then
    let s = slot t conn in
    if s >= 0 then begin
      let c = t.cells.(s) in
      c.c_bytes <- c.c_bytes + bytes
    end

let count t = t.n

let dump t =
  Array.init t.n (fun i ->
      let c = t.cells.(i) in
      {
        e_conn = c.c_conn;
        e_src = c.c_src;
        e_dst = c.c_dst;
        e_size = c.c_size;
        e_long = c.c_long;
        e_start_ns = c.c_start_ns;
        e_handshake_ns = c.c_handshake_ns;
        e_switch_ns = c.c_switch_ns;
        e_promote_ns = c.c_promote_ns;
        e_complete_ns = c.c_complete_ns;
        e_rtos = c.c_rtos;
        e_fast_rtxs = c.c_fast_rtxs;
        e_bytes = c.c_bytes;
      })

let fct_ns e =
  if e.e_complete_ns < 0 then None else Some (e.e_complete_ns - e.e_start_ns)

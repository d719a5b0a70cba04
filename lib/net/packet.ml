type t = {
  mutable uid : int;
  mutable src : Addr.t;
  mutable dst : Addr.t;
  mutable size : int;
  mutable conn : int;
  mutable subflow : int;
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack_seq : int;
  mutable len : int;
  mutable bits : int;
  mutable sack_count : int;
  sack : int array;
  mutable gen : int;
}

let header_bytes = 40
let max_sack_blocks = 3

let syn_bit = 1
let ack_bit = 2
let dup_bit = 16

let data_bits = 0
let pure_ack_bits = ack_bit
let syn_bits = syn_bit
let syn_ack_bits = syn_bit lor ack_bit

let ack_bits ~dup_seen = ack_bit lor (if dup_seen then dup_bit else 0)

(* ------------------------------------------------------------------ *)
(* Pool sanitizer (debug profiles only; [sanitizer] is a compile-time
   constant, so release builds pay one predictable branch per guarded
   operation and nothing else).

   [gen] counts the record's trips through the pool: odd = live
   (issued by [make]), even = pooled (returned by [free]). [free]
   flips the parity and poisons every header field, so a stale alias
   that survives its handler either trips a generation check at the
   next accessor call or reads values no valid segment can carry —
   both of which the debug test battery catches deterministically
   instead of corrupting a sequence number in silence. *)

let sanitizer = Sim_engine.Sanitizer_mode.on

(* Poison sits far outside any valid sequence/length so arithmetic on
   a dead packet produces wildly wrong, not plausibly wrong, values. *)
let poison = 0x7EAD_DEAD_DEAD

let dead t = t.gen land 1 = 0

let check_live t ~op =
  if sanitizer && dead t then
    invalid_arg
      (Printf.sprintf
         "Packet.%s: use-after-free of pooled packet uid %d (pool generation \
          %d; the record was returned to the pool — retaining components must \
          Packet.copy)"
         op t.uid t.gen)

let syn t = check_live t ~op:"syn"; t.bits land syn_bit <> 0
let ack t = check_live t ~op:"ack"; t.bits land ack_bit <> 0
let dup_seen t = check_live t ~op:"dup_seen"; t.bits land dup_bit <> 0

(* ------------------------------------------------------------------ *)
(* Per-simulation freelist, hung off the context's extension slot so
   the engine layer needn't know the packet type. A plain stack: [free]
   pushes, [make] pops. Records in the pool are dead — nothing else
   references them — so reuse only has to reinitialise every field
   [make] promises. The [dummy] fill element lives in the pool record
   itself (allocated per simulation with the pool), so freed slots
   hold no live packet and no module-level state exists to share
   across simulations.

   The pool also counts live packets per connection id ([live]; ids
   are dense per simulation, so a flat array) for {!on_idle}: a
   watched connection whose count drops to 0 in [free] is pushed on
   [idle], and its check runs later, from {!run_idle}. *)

type pool = {
  mutable items : t array;
  mutable count : int;
  dummy : t;
  mutable live : int array;  (* live packets, by conn id *)
  mutable checks : (unit -> bool) array;  (* close checks, by conn id *)
  mutable idle : int array;  (* watched conns whose count reached 0 *)
  mutable idle_count : int;
}

type Sim_engine.Sim_ctx.ext += Pool of pool

(* The [checks] fill: a connection nobody watches. Compared by
   physical equality, never called. *)
let unwatched () = false

let pool_of ctx =
  match Sim_engine.Sim_ctx.ext ctx with
  | Some (Pool p) -> p
  | _ ->
    let dummy =
      {
        uid = 0;
        src = Addr.of_int 0;
        dst = Addr.of_int 0;
        size = 0;
        conn = 0;
        subflow = 0;
        src_port = 0;
        dst_port = 0;
        seq = 0;
        ack_seq = 0;
        len = 0;
        bits = 0;
        sack_count = 0;
        sack = [||];
        gen = 0;
      }
    in
    let p =
      {
        items = Array.make 64 dummy;
        count = 0;
        dummy;
        live = [||];
        checks = [||];
        idle = Array.make 16 0;
        idle_count = 0;
      }
    in
    Sim_engine.Sim_ctx.set_ext ctx (Pool p);
    p

(* Make room for conn id [conn] in the per-conn arrays. *)
let grow_conns p conn =
  let n = max (conn + 1) (2 * Array.length p.live) in
  let live = Array.make n 0 and checks = Array.make n unwatched in
  Array.blit p.live 0 live 0 (Array.length p.live);
  Array.blit p.checks 0 checks 0 (Array.length p.checks);
  p.live <- live;
  p.checks <- checks

let track_make p conn =
  if conn >= Array.length p.live then grow_conns p conn;
  p.live.(conn) <- p.live.(conn) + 1

let push_idle p conn =
  if p.idle_count = Array.length p.idle then begin
    let idle = Array.make (2 * p.idle_count) 0 in
    Array.blit p.idle 0 idle 0 p.idle_count;
    p.idle <- idle
  end;
  p.idle.(p.idle_count) <- conn;
  p.idle_count <- p.idle_count + 1

(* A conn beyond [live] has no packet from this pool's [make]: the
   record came from another simulation's context (tests do that). *)
let track_free p conn =
  if conn < Array.length p.live then begin
    let n = p.live.(conn) - 1 in
    p.live.(conn) <- n;
    if n = 0 && p.checks.(conn) != unwatched then push_idle p conn
  end

let make ~ctx ~src ~dst ~conn ~subflow ~src_port ~dst_port ~seq ~ack_seq ~len
    ~bits =
  let uid = Sim_engine.Sim_ctx.fresh_packet_uid ctx in
  let p = pool_of ctx in
  track_make p conn;
  if p.count = 0 then
    {
      uid;
      src;
      dst;
      size = header_bytes + len;
      conn;
      subflow;
      src_port;
      dst_port;
      seq;
      ack_seq;
      len;
      bits;
      sack_count = 0;
      sack = Array.make (2 * max_sack_blocks) 0;
      gen = 1;
    }
  else begin
    p.count <- p.count - 1;
    let t = p.items.(p.count) in
    p.items.(p.count) <- p.dummy;
    if sanitizer then begin
      if not (dead t) then
        invalid_arg
          (Printf.sprintf
             "Packet.make: pool corruption — freelist slot holds a live \
              record (uid %d, generation %d)"
             t.uid t.gen);
      t.gen <- t.gen + 1 (* odd again: reissued *)
    end;
    t.uid <- uid;
    t.src <- src;
    t.dst <- dst;
    t.size <- header_bytes + len;
    t.conn <- conn;
    t.subflow <- subflow;
    t.src_port <- src_port;
    t.dst_port <- dst_port;
    t.seq <- seq;
    t.ack_seq <- ack_seq;
    t.len <- len;
    t.bits <- bits;
    t.sack_count <- 0;
    t
  end

let copy ~ctx t =
  check_live t ~op:"copy";
  let d =
    make ~ctx ~src:t.src ~dst:t.dst ~conn:t.conn ~subflow:t.subflow
      ~src_port:t.src_port ~dst_port:t.dst_port ~seq:t.seq ~ack_seq:t.ack_seq
      ~len:t.len ~bits:t.bits
  in
  d.sack_count <- t.sack_count;
  Array.blit t.sack 0 d.sack 0 (2 * t.sack_count);
  d

let free ~ctx t =
  if sanitizer && dead t then
    invalid_arg
      (Printf.sprintf
         "Packet.free: double free of pooled packet uid %d (pool generation \
          %d; only the packet's final owner — host delivery or queue drop — \
          frees, exactly once)"
         t.uid t.gen);
  let p = pool_of ctx in
  (* Before the sanitizer poisons [conn]. *)
  track_free p t.conn;
  if sanitizer then begin
    t.gen <- t.gen + 1;
    (* even: pooled *)
    (* Poison the header so a stale direct field read (which no
       accessor guard can intercept) yields values outside any valid
       segment. [uid] is kept for the diagnostic above. *)
    t.seq <- poison;
    t.ack_seq <- poison;
    t.len <- poison;
    t.size <- poison;
    t.conn <- poison;
    t.subflow <- poison;
    t.sack_count <- 0;
    Array.fill t.sack 0 (Array.length t.sack) poison
  end;
  if p.count = Array.length p.items then begin
    let items = Array.make (2 * p.count) p.dummy in
    Array.blit p.items 0 items 0 p.count;
    p.items <- items
  end;
  p.items.(p.count) <- t;
  p.count <- p.count + 1

let live_packets ~ctx ~conn =
  let p = pool_of ctx in
  if conn < Array.length p.live then p.live.(conn) else 0

let live_total ~ctx = Array.fold_left ( + ) 0 (pool_of ctx).live

let on_idle ~ctx ~conn check =
  let p = pool_of ctx in
  if conn >= Array.length p.live then grow_conns p conn;
  p.checks.(conn) <- check

let run_idle ~ctx =
  let p = pool_of ctx in
  while p.idle_count > 0 do
    p.idle_count <- p.idle_count - 1;
    let conn = p.idle.(p.idle_count) in
    (* A packet sent since the count reached 0 defers the check to its
       own free; a check already passed has been unregistered. *)
    if p.live.(conn) = 0 && p.checks.(conn) () then
      p.checks.(conn) <- unwatched
  done

let sack_blocks t =
  check_live t ~op:"sack_blocks";
  List.init t.sack_count (fun i -> (t.sack.(2 * i), t.sack.((2 * i) + 1)))

let is_data t = check_live t ~op:"is_data"; t.len > 0

let is_pure_ack t =
  check_live t ~op:"is_pure_ack";
  t.len = 0 && t.bits land ack_bit <> 0 && t.bits land syn_bit = 0

(* Per-simulation metrics registry. All state lives inside [t] (one
   per Sim_ctx, hence one per scheduler/simulation): nothing at module
   level, so probed simulations stay independent of each other
   (simlint D001).

   Instruments are kept in reverse registration order as lists —
   registration is a construction-time event, never a hot path — and
   snapshotted into forward arrays for the sampler and the capture. *)

type meta = { component : string; id : string; name : string; units : string }

type event = {
  t_ns : int;
  kind : string;
  conn : int;
  subflow : int;
  info : (string * string) list;
}

type t = {
  mutable on : bool;
  mutable conns : int list option;
  mutable clock_ns : unit -> int;
  mutable gauges_rev : (meta * (unit -> float)) list;
  mutable n_gauges : int;
  mutable hists_rev : (meta * Sim_stats.Histogram.t) list;
  mutable events_rev : event list;
  mutable n_events : int;
  (* Conn-filter diagnostics: did any [want_conn] query ever match
     while a filter was set? Lets the scenario layer reject a --probe
     CONN list that matches nothing under the selected model instead
     of silently rendering empty artifacts. *)
  mutable filter_matched : bool;
  mutable components_rev : string list;
}

let create () =
  {
    on = false;
    conns = None;
    clock_ns = (fun () -> 0);
    gauges_rev = [];
    n_gauges = 0;
    hists_rev = [];
    events_rev = [];
    n_events = 0;
    filter_matched = false;
    components_rev = [];
  }

let enable t ?conns ~clock_ns () =
  t.on <- true;
  t.conns <- conns;
  t.clock_ns <- clock_ns

let active t = t.on

let want_conn t conn =
  t.on
  &&
  match t.conns with
  | None -> true
  | Some cs ->
    let hit = List.mem conn cs in
    if hit then t.filter_matched <- true;
    hit

let conn_filter t = if t.on then t.conns else None
let conn_filter_matched t = t.filter_matched

let note_component t component =
  if t.on && not (List.mem component t.components_rev) then
    t.components_rev <- component :: t.components_rev

let components t = List.rev t.components_rev

let now_ns t = t.clock_ns ()

let register t ~component ~id ~name ~units read =
  if t.on then begin
    note_component t component;
    t.gauges_rev <- ({ component; id; name; units }, read) :: t.gauges_rev;
    t.n_gauges <- t.n_gauges + 1
  end

let histogram t ~component ~id ~name ~units ~lo ~hi ~buckets =
  if not t.on then None
  else begin
    note_component t component;
    let h = Sim_stats.Histogram.create ~lo ~hi ~buckets in
    t.hists_rev <- ({ component; id; name; units }, h) :: t.hists_rev;
    Some h
  end

let emit t ~kind ?(conn = -1) ?(subflow = -1) ?(info = []) () =
  if t.on && (conn < 0 || want_conn t conn) then begin
    t.events_rev <-
      { t_ns = t.clock_ns (); kind; conn; subflow; info } :: t.events_rev;
    t.n_events <- t.n_events + 1
  end

let gauge_count t = t.n_gauges

let rev_to_array n rev =
  match rev with
  | [] -> [||]
  | hd :: _ ->
    let a = Array.make n hd in
    let i = ref (n - 1) in
    List.iter
      (fun x ->
        a.(!i) <- x;
        decr i)
      rev;
    a

let gauges t = rev_to_array t.n_gauges t.gauges_rev
let hist_dump t = rev_to_array (List.length t.hists_rev) t.hists_rev
let events t = rev_to_array t.n_events t.events_rev

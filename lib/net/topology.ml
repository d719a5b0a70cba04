module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler

type link_spec = {
  rate_bps : float;
  delay : Time.t;
  queue_capacity : int;
}

let default_link_spec =
  {
    rate_bps = 100e6;
    delay = Time.of_us 20.;
    queue_capacity = 100;
  }

(* Route-walk state: the destinations' classes; per (switch,
   destination class), the number of paths below ([memo], [-1] until
   first asked) and, when every link of the group leads to as many and
   that is under 256, that per-link number ([each], else 0); a scratch
   buffer one hop longer than any loop-free path. *)
type walk = {
  dests : Switch.dests;
  mutable memo : int array;
  mutable each : Bytes.t;
  buf : int array;
}

type t = {
  sched : Scheduler.t;
  name : string;
  hosts : Host.t array;
  switches : Switch.t array;
  links : Link.t array;
  walk : walk;
}

let host t i = t.hosts.(i)
let host_count t = Array.length t.hosts

let layer_links t layer =
  Array.to_list t.links
  |> List.filter (fun l -> Layer.equal (Pktqueue.layer (Link.queue l)) layer)

let layer_loss_rate t layer =
  let offered = ref 0 and dropped = ref 0 in
  List.iter
    (fun l ->
      let st = Pktqueue.stats (Link.queue l) in
      offered := !offered + st.Pktqueue.enqueued + st.Pktqueue.dropped;
      dropped := !dropped + st.Pktqueue.dropped)
    (layer_links t layer);
  if !offered = 0 then 0. else float_of_int !dropped /. float_of_int !offered

let layer_utilisation t layer =
  let links = layer_links t layer in
  match links with
  | [] -> 0.
  | _ ->
    let now = Scheduler.now t.sched in
    let sum =
      List.fold_left (fun acc l -> acc +. Link.utilisation l ~now) 0. links
    in
    sum /. float_of_int (List.length links)

let total_drops t =
  Array.fold_left
    (fun acc l -> acc + (Pktqueue.stats (Link.queue l)).Pktqueue.dropped)
    0 t.links

(* Paths from switch [sw] to any host of class [c]; they depend only
   on the two, so the memo serves every destination for the run. *)
let rec count t sw c =
  let w = t.walk in
  let k = (sw * w.dests.Switch.classes) + c in
  if w.memo.(k) < 0 then begin
    match Switch.entry t.switches.(sw) c with
    | Switch.Local _ -> w.memo.(k) <- 1
    | Switch.Group { links; _ } ->
      let below =
        Array.map
          (fun l ->
            let s = Link.peer l in
            if s < 0 then invalid_arg "Topology: route group leads to a host";
            count t s c)
          links
      in
      w.memo.(k) <- Array.fold_left ( + ) 0 below;
      if below.(0) < 256 && Array.for_all (fun m -> m = below.(0)) below then
        Bytes.set w.each k (Char.chr below.(0))
  end;
  w.memo.(k)

(* Paths to host [dst], of class [c], that start with link [l]. *)
let reach t l ~dst c =
  let s = Link.peer l in
  if s >= 0 then count t s c else if s = -1 - dst then 1 else 0

(* The memo arrays are made on first use: a packet-only run never
   enumerates. *)
let prepare t =
  let w = t.walk in
  if Array.length w.memo = 0 then begin
    let n = Array.length t.switches * w.dests.Switch.classes in
    w.memo <- Array.make n (-1);
    w.each <- Bytes.make n '\000'
  end

let paths t ~src ~dst =
  if src = dst then 0
  else begin
    prepare t;
    let c = t.walk.dests.Switch.cls.(dst) in
    Array.fold_left (fun n l -> n + reach t l ~dst c) 0 (Host.nics t.hosts.(src))
  end

(* Write path [choice] among those starting with a link of [links]
   (from index [i] on) into the walk buffer from position [len]: skip
   whole subtrees until the one holding [choice] (the last one holds
   whatever is left), then descend. Returns the path length. *)
let rec take t ~dst c links i choice len =
  let l = links.(i) in
  if i = Array.length links - 1 then follow t ~dst c l choice len
  else begin
    let n = reach t l ~dst c in
    if choice >= n then take t ~dst c links (i + 1) (choice - n) len
    else follow t ~dst c l choice len
  end

(* Write path [choice] among those starting with link [l]. A uniform
   group needs no scan: [choice] divides by its per-link count. *)
and follow t ~dst c l choice len =
  let w = t.walk in
  w.buf.(len) <- Link.id l;
  let s = Link.peer l in
  if s < 0 then len + 1
  else
    match Switch.entry t.switches.(s) c with
    | Switch.Local down ->
      w.buf.(len + 1) <- Link.id down.(w.dests.Switch.slot.(dst));
      len + 2
    | Switch.Group { links = [| l |]; _ } -> follow t ~dst c l choice (len + 1)
    | Switch.Group { links; _ } ->
      let k = (s * w.dests.Switch.classes) + c in
      let each = Char.code (Bytes.get w.each k) in
      if each > 0 then begin
        let i = choice / each in
        follow t ~dst c links.(i) (choice - (i * each)) (len + 1)
      end
      else take t ~dst c links 0 choice (len + 1)

let walk t ~src ~dst ~choice =
  if src = dst then 0
  else begin
    prepare t;
    let c = t.walk.dests.Switch.cls.(dst) in
    take t ~dst c (Host.nics t.hosts.(src)) 0 choice 0
  end

let walk_buffer t = t.walk.buf
let path t ~src ~dst ~choice = Array.sub t.walk.buf 0 (walk t ~src ~dst ~choice)

module Builder = struct
  type b = {
    sched : Scheduler.t;
    mutable links_rev : Link.t list;
    mutable next_id : int;
  }

  let create sched = { sched; links_rev = []; next_id = 0 }

  let make_link b ~spec ~layer =
    let queue =
      Pktqueue.create ~ctx:(Scheduler.ctx b.sched) ~capacity:spec.queue_capacity
        ~layer ()
    in
    let link =
      Link.create ~sched:b.sched ~rate_bps:spec.rate_bps ~delay:spec.delay
        ~queue ~id:b.next_id ()
    in
    b.next_id <- b.next_id + 1;
    b.links_rev <- link :: b.links_rev;
    link

  let links b = Array.of_list (List.rev b.links_rev)
  let to_switch link sw = Link.attach link ~peer:(Switch.id sw) (Switch.receive sw)

  let to_host link h =
    Link.attach link ~peer:(-1 - Addr.to_int (Host.addr h)) (Host.receive h)

  let finish b ~name ~hosts ~switches ~dests =
    Array.iteri
      (fun i sw ->
        if Switch.id sw <> i then
          invalid_arg "Topology.Builder.finish: switch ids must be their indices")
      switches;
    let n_sw = Array.length switches in
    {
      sched = b.sched;
      name;
      hosts;
      switches;
      links = links b;
      walk =
        {
          dests;
          memo = [||];
          each = Bytes.empty;
          buf = Array.make (n_sw + 1) 0;
        };
    }
end

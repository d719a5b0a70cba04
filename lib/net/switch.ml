type entry =
  | Local of Link.t array
  | Group of { salt : int; links : Link.t array }

type dests = { cls : int array; slot : int array; classes : int }

let dests ~hosts ~size =
  {
    cls = Array.init hosts (fun h -> h / size);
    slot = Array.init hosts (fun h -> h mod size);
    classes = (hosts + size - 1) / size;
  }

type t = {
  id : int;
  dests : dests;
  mutable table : entry array;
}

let create ~id ~dests = { id; dests; table = [||] }

let id t = t.id
let group ?salt t links = Group { salt = Option.value salt ~default:t.id; links }

let set_table t table =
  if Array.length table <> t.dests.classes then
    invalid_arg "Switch.set_table: one entry per destination class";
  t.table <- table

let entry t c = t.table.(c)

let receive t pkt =
  let d = Addr.to_int pkt.Packet.dst in
  let link =
    match t.table.(t.dests.cls.(d)) with
    | Local down -> down.(t.dests.slot.(d))
    | Group { salt; links } -> Ecmp.pick pkt ~salt links
  in
  Link.send link pkt

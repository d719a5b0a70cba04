module Capture = Sim_obs.Capture
module Metrics = Sim_obs.Metrics

(* Component names in first-gauge-registration order: determined by
   simulation construction order, not by hashing. *)
let components (c : Capture.t) =
  Array.fold_left
    (fun acc (g : Metrics.meta) ->
      if List.mem g.component acc then acc else g.component :: acc)
    [] c.gauges
  |> List.rev

let gauge_table ~prefix (c : Capture.t) comp =
  let rows =
    Array.to_list c.samples
    |> List.filter (fun (_, idx, _) -> c.gauges.(idx).Metrics.component = comp)
  in
  if rows = [] then None
  else
    Some
      (Sink.table
         ~name:(Printf.sprintf "%s-%s" prefix comp)
         ~columns:
           [
             Sink.column "t_ns" Sink.int (fun (t, _, _) -> t);
             Sink.column "id" Sink.str (fun (_, i, _) -> c.gauges.(i).Metrics.id);
             Sink.column "metric" Sink.str (fun (_, i, _) ->
                 c.gauges.(i).Metrics.name);
             Sink.column "units" Sink.str (fun (_, i, _) ->
                 c.gauges.(i).Metrics.units);
             Sink.column "value" Sink.float (fun (_, _, v) -> v);
           ]
         rows)

let hist_table ~prefix (c : Capture.t) =
  let rows =
    Array.to_list c.hists
    |> List.concat_map (fun (h : Capture.hist) ->
           Array.to_list
             (Array.mapi
                (fun i count ->
                  let lo, hi = h.bucket_bounds.(i) in
                  (h.h_meta, lo, hi, count))
                h.bucket_counts)
           |> List.filter (fun (_, _, _, count) -> count > 0))
  in
  if rows = [] then None
  else
    Some
      (Sink.table ~name:(prefix ^ "-hist")
         ~columns:
           [
             Sink.column "component" Sink.str
               (fun ((m : Metrics.meta), _, _, _) -> m.component);
             Sink.column "id" Sink.str (fun ((m : Metrics.meta), _, _, _) -> m.id);
             Sink.column "metric" Sink.str
               (fun ((m : Metrics.meta), _, _, _) -> m.name);
             Sink.column "units" Sink.str
               (fun ((m : Metrics.meta), _, _, _) -> m.units);
             Sink.column "bucket_lo" Sink.float (fun (_, lo, _, _) -> lo);
             Sink.column "bucket_hi" Sink.float (fun (_, _, hi, _) -> hi);
             Sink.column "count" Sink.int (fun (_, _, _, n) -> n);
           ]
         rows)

let events_jsonl (c : Capture.t) =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (e : Metrics.event) ->
      Buffer.add_string buf (Printf.sprintf "{\"t_ns\":%d,\"kind\":" e.t_ns);
      Buffer.add_string buf (Sink.json_escape e.kind);
      if e.conn >= 0 then
        Buffer.add_string buf (Printf.sprintf ",\"conn\":%d" e.conn);
      if e.subflow >= 0 then
        Buffer.add_string buf (Printf.sprintf ",\"subflow\":%d" e.subflow);
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (Sink.json_escape k);
          Buffer.add_char buf ':';
          Buffer.add_string buf (Sink.json_escape v))
        e.info;
      Buffer.add_string buf "}\n")
    c.events;
  Buffer.contents buf

let capture_artifacts ~experiment ~label (c : Capture.t) =
  let prefix = Printf.sprintf "probe-%s-%s" experiment (Sink.sanitize label) in
  let tables =
    List.filter_map Fun.id
      (List.map (gauge_table ~prefix c) (components c) @ [ hist_table ~prefix c ])
  in
  let events =
    match events_jsonl c with
    | "" -> []
    | contents -> [ Sink.Raw { basename = prefix ^ "-events.jsonl"; contents } ]
  in
  List.map (fun t -> Sink.Table t) tables @ events

let artifacts ~experiment pairs =
  List.concat_map
    (fun (label, c) -> capture_artifacts ~experiment ~label c)
    pairs

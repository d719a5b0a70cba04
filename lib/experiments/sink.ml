(* Structured result sinks: one column list per result table,
   rendered as Report's aligned text and as CSV + JSON artifacts, plus
   a per-run manifest. File I/O only — stdout stays the Report module's
   monopoly (simlint D004), which is what keeps the parallel runner's
   byte-identical-output guarantee intact whatever artifacts a run
   also writes. *)

type cell = Int of int | Float of float | String of string

let int i = Int i
let float f = Float f
let str s = String s

let csv_cell = function
  | Int i -> string_of_int i
  | Float f -> Sim_stats.Csv.float_cell f
  | String s -> s

(* ------------------------------------------------------------------ *)
(* Minimal JSON encoding (no dependency): objects, arrays, strings,
   finite numbers. Non-finite floats have no JSON representation and
   encode as null. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '-')
    label

let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let json_cell = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | String s -> json_escape s

(* ------------------------------------------------------------------ *)
(* Tables *)

type 'a column = {
  heading : string;
  key : string;
  text : 'a -> string;
  cell : 'a -> cell;
}

let column ?heading ?text key cell proj =
  {
    heading = Option.value heading ~default:key;
    key;
    text =
      (match text with
      | Some f -> fun a -> f (proj a)
      | None -> fun a -> csv_cell (cell (proj a)));
    cell = (fun a -> cell (proj a));
  }

(* Rows stay unprojected until a rendering asks for them: the text
   form is only built for tables Report prints. *)
type table =
  | T : { t_name : string; t_columns : 'a column list; t_rows : 'a list } -> table

let table ~name ~columns rows =
  T { t_name = name; t_columns = columns; t_rows = rows }

let name (T t) = t.t_name
let columns (T t) = List.map (fun c -> c.key) t.t_columns

let rows (T t) =
  List.map (fun r -> List.map (fun c -> c.cell r) t.t_columns) t.t_rows

let text (T t) =
  Sim_stats.Table.render
    ~header:(List.map (fun c -> c.heading) t.t_columns)
    (List.map (fun r -> List.map (fun c -> c.text r) t.t_columns) t.t_rows)

let csv_string t =
  Sim_stats.Csv.to_string ~header:(columns t)
    (List.map (List.map csv_cell) (rows t))

let json_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"name\": ";
  Buffer.add_string buf (json_escape (name t));
  Buffer.add_string buf ",\n  \"columns\": [";
  Buffer.add_string buf (String.concat ", " (List.map json_escape (columns t)));
  Buffer.add_string buf "],\n  \"rows\": [";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    [";
      Buffer.add_string buf (String.concat ", " (List.map json_cell row));
      Buffer.add_char buf ']')
    (rows t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* File output *)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let write_file ~dir ~basename contents =
  ensure_dir dir;
  let oc = open_out (Filename.concat dir basename) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  basename

let write ~dir t =
  [
    write_file ~dir ~basename:(name t ^ ".csv") (csv_string t);
    write_file ~dir ~basename:(name t ^ ".json") (json_string t);
  ]

(* ------------------------------------------------------------------ *)
(* Artifacts *)

type artifact = Table of table | Raw of { basename : string; contents : string }

let write_artifact ~dir = function
  | Table t -> write ~dir t
  | Raw { basename; contents } -> [ write_file ~dir ~basename contents ]

(* ------------------------------------------------------------------ *)
(* Manifest *)

type experiment_entry = {
  e_name : string;
  e_artifacts : string list;
  e_points : (string * float) list;
}

let manifest_string ~scale ~jobs ~git ~total_seconds entries =
  let buf = Buffer.create 2048 in
  let add = Buffer.add_string buf in
  add "{\n  \"tool\": \"mmptcp_sim\",\n  \"scale\": {";
  add
    (Printf.sprintf
       "\"k\": %d, \"oversub\": %d, \"flows\": %d, \"rate\": %s, \"seed\": %d, \
        \"horizon_s\": %s, \"model\": %s"
       scale.Scale.k scale.Scale.oversub scale.Scale.flows
       (json_float scale.Scale.rate) scale.Scale.seed
       (json_float scale.Scale.horizon_s)
       (json_escape (Sim_workload.Scenario.model_name scale.Scale.model)));
  add "},\n";
  add (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  add
    (Printf.sprintf "  \"git\": %s,\n"
       (match git with Some g -> json_escape g | None -> "null"));
  add (Printf.sprintf "  \"total_seconds\": %s,\n" (json_float total_seconds));
  add "  \"experiments\": [";
  List.iteri
    (fun i e ->
      if i > 0 then add ",";
      add "\n    {\n      \"name\": ";
      add (json_escape e.e_name);
      (* Points of different experiments interleave on the shared
         queue, so the only well-defined per-experiment cost is the
         sum of its points' durations. *)
      add
        (Printf.sprintf ",\n      \"seconds\": %s"
           (json_float
              (List.fold_left (fun a (_, s) -> a +. s) 0. e.e_points)));
      add ",\n      \"points\": [";
      List.iteri
        (fun j (label, secs) ->
          if j > 0 then add ", ";
          add
            (Printf.sprintf "{\"label\": %s, \"seconds\": %s}"
               (json_escape label) (json_float secs)))
        e.e_points;
      add "],\n      \"artifacts\": [";
      add (String.concat ", " (List.map json_escape e.e_artifacts));
      add "]\n    }")
    entries;
  add "\n  ]\n}\n";
  Buffer.contents buf

let write_manifest ~dir ~scale ~jobs ~git ~total_seconds entries =
  write_file ~dir ~basename:"manifest.json"
    (manifest_string ~scale ~jobs ~git ~total_seconds entries)

(** Structured result sinks for the experiment registry.

    An experiment declares each result table once, as a list of
    columns over its rows. That one declaration renders twice: as the
    aligned text table {!Report} prints, and as a CSV file (RFC 4180,
    via {!Sim_stats.Csv}) plus a JSON file under [--out DIR]. The sink
    layer also writes a run manifest describing every artifact of an
    invocation. Sinks write files only — they never touch stdout, so
    they cannot perturb the byte-identical-output guarantee of the
    parallel runner (simlint rule D004 covers console I/O; file
    artifacts under an explicit [--out DIR] are deliberately outside
    its scope). *)

(** {2 Cells} *)

type cell
(** One datum: an int, a float or a string. Rendered as [%.6g] /
    bare text in CSV; in JSON, non-finite floats become [null]
    (JSON has no NaN or infinity). *)

val int : int -> cell
val float : float -> cell
val str : string -> cell

(** {2 Tables} *)

type 'a column
(** One column over rows of type ['a]: a stdout heading and text
    cell, an artifact key and cell. *)

val column :
  ?heading:string ->
  ?text:('v -> string) ->
  string ->
  ('v -> cell) ->
  ('a -> 'v) ->
  'a column
(** [column ~heading ~text key cell proj] projects each row to a value
    with [proj]; [text] formats it for stdout under [heading], [cell]
    encodes it for the artifact under [key]. [heading] defaults to
    [key] and [text] to the cell's CSV rendering. *)

type table
(** A named column list over its rows. *)

val table : name:string -> columns:'a column list -> 'a list -> table
(** [name] becomes the artifact basename ([name.csv], [name.json]). *)

val text : table -> string
(** The aligned text table: headings over text cells. *)

val name : table -> string
val columns : table -> string list
(** The artifact keys. *)

val rows : table -> cell list list

val csv_string : table -> string
val json_string : table -> string
(** [{ "name": ..., "columns": [...], "rows": [[...], ...] }] *)

val json_escape : string -> string
(** [s] as a quoted JSON string literal. *)

val sanitize : string -> string
(** A point label as a file-name fragment: every character outside
    [[A-Za-z0-9._-]] becomes ['-']. *)

val ensure_dir : string -> unit
(** Create [dir] and any missing parents. Raises [Sys_error] naming
    the path if one cannot be created, or if [dir] exists and is not
    a directory. *)

val write : dir:string -> table -> string list
(** Write [name.csv] and [name.json] under [dir] (created with its
    parents if missing); returns the basenames written, CSV first.
    Raises [Sys_error] on unwritable paths. *)

(** {2 Artifacts}

    Most artifacts are tables (rendered as CSV + JSON); streams that
    are not tabular — the probe sampler's JSONL event log — are raw
    files written verbatim. *)

type artifact =
  | Table of table
  | Raw of { basename : string; contents : string }

val write_artifact : dir:string -> artifact -> string list
(** Write one artifact under [dir]; returns the basenames written
    ([name.csv; name.json] for a table, the single basename for a raw
    file). *)

(** {2 Run manifest} *)

type point_entry = {
  p_label : string;
  p_seconds : float;  (** host seconds where the point ran *)
  p_end : (float * string) option;
      (** the simulated instant the point's run ended, in seconds, and
          why (["shorts-closed"] or ["horizon"]); written as
          [sim_end_s] and [end] when known *)
}

type experiment_entry = {
  e_name : string;
  e_artifacts : string list;  (** basenames under the out dir *)
  e_points : point_entry list;
}

val manifest_string :
  scale:Scale.t ->
  jobs:int ->
  git:string option ->
  total_seconds:float ->
  experiment_entry list ->
  string
(** The manifest as JSON: tool name, the full scale record, job
    count, [git describe] output when available, end-to-end
    wall-clock, and per-experiment entries. An experiment's
    [seconds] is the sum of its point durations — under the shared
    cross-experiment queue points of different experiments
    interleave, so per-experiment *wall*-clock is not defined. *)

val write_manifest :
  dir:string ->
  scale:Scale.t ->
  jobs:int ->
  git:string option ->
  total_seconds:float ->
  experiment_entry list ->
  string
(** Write [manifest.json] under [dir]; returns its basename. *)

(** Structured result sinks for the experiment registry.

    An experiment declares its artifact as a list of named columns
    over its result rows; the sink layer renders that one declaration
    as both a CSV file (RFC 4180, via {!Sim_stats.Csv}) and a JSON
    file, and writes a run manifest describing every artifact of an
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

type table
(** A materialised artifact: a name plus columns of cells. *)

val table : name:string -> columns:(string * ('a -> cell)) list -> 'a list -> table
(** [table ~name ~columns rows] applies each column's projection to
    every row. [name] becomes the artifact basename ([name.csv],
    [name.json]). *)

val name : table -> string
val columns : table -> string list
val rows : table -> cell list list

val csv_string : table -> string
val json_string : table -> string
(** [{ "name": ..., "columns": [...], "rows": [[...], ...] }] *)

val json_escape : string -> string
(** [s] as a quoted JSON string literal. *)

val write : dir:string -> table -> string list
(** Write [name.csv] and [name.json] under [dir] (created if
    missing); returns the basenames written, CSV first. Raises
    [Sys_error] on unwritable paths. *)

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

type experiment_entry = {
  e_name : string;
  e_artifacts : string list;  (** basenames under the out dir *)
  e_points : (string * float) list;
      (** per-point (label, seconds where the point ran) *)
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

(** Shared result-reporting helpers for the experiment suite. *)

type fct_stats = {
  completed : int;
  incomplete : int;
  mean_ms : float;
  sd_ms : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  within_100ms : float;  (** fraction of completed shorts *)
  flows_with_rto : int;  (** shorts with an RTO, completed or not *)
}

val fct_stats : Sim_workload.Scenario.result -> fct_stats
(** Short-flow statistics of a finished scenario run; the FCT fields
    are [nan] when no short completed. *)

(** {2 Result tables}

    One row per scenario point. The columns below are the groups the
    experiments share; each renders both as stdout text and as an
    artifact cell ({!Sink.column}). *)

type 'p row = {
  point : 'p;
  result : Sim_workload.Scenario.result;
  fct : fct_stats;  (** [fct_stats result] *)
}

val rows : ('p * Sim_workload.Scenario.result) list -> 'p row list

val label : string -> ('p -> string) -> 'p row Sink.column
(** [label key f]: a string column with [key] as heading and
    artifact key, read off the point with [f]. *)

val versus : string -> (string * 'a * string * 'b) row Sink.column list
(** [versus heading]: the variant name under [heading], then the
    protocol name, of a {!Scale.versus} point. *)

val ms : string -> string -> ('a -> float) -> 'a Sink.column
(** [ms heading key proj]: milliseconds, 1 decimal on stdout. *)

val mean : ?heading:string -> unit -> 'p row Sink.column
(** ["mean(ms)"] / [mean_ms]. *)

val sd : ?heading:string -> unit -> 'p row Sink.column
(** ["sd(ms)"] / [sd_ms]. *)

val p50 : unit -> 'p row Sink.column
val p99 : unit -> 'p row Sink.column
val rto_flows : unit -> 'p row Sink.column
val incomplete : unit -> 'p row Sink.column

val fct : ?sd_heading:string -> unit -> 'p row Sink.column list
(** The FCT group: {!mean}, {!sd}, {!p99}, {!rto_flows}. *)

val long_goodput : ?heading:string -> unit -> 'p row Sink.column
(** ["long goodput(Mb/s)"] / [long_goodput_mbps], 1 decimal. *)

(** {2 Output channel}

    All experiment stdout goes through these. This module is the one
    [D004] allowlist entry in [simlint.allow]; direct [Printf.printf]
    (or friends) anywhere else under [lib/] fails [dune build @lint]. *)

val printf : ('a, out_channel, unit) format -> 'a
(** Formatted experiment output (stdout). *)

val out : string -> unit
(** Verbatim experiment output (stdout). *)

val header : string -> unit
(** Print an experiment banner. *)

val sub_header : string -> unit

val workload : ?note:string -> Scale.t -> unit
(** ["workload: <Scale.pp>"], then [note] verbatim, then a newline. *)

val table : Sink.table -> Sink.table
(** Print the table's aligned text form and return it, so a render
    can end with [[ Report.table t ]]. *)

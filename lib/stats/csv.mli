(** Minimal CSV rendering (RFC 4180 quoting) for exporting figure data
    series to external plotting tools; the experiment sinks write the
    rendered text to files. *)

val escape : string -> string
(** Quote a cell if it contains commas, quotes or newlines. *)

val to_string : header:string list -> string list list -> string
(** Raises [Invalid_argument] if any row's arity differs from the
    header's. *)

val float_cell : float -> string
(** [%.6g]; non-finite values render as [nan], [inf] and [-inf]. *)

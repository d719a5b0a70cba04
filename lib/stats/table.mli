(** Aligned-column text tables for experiment output. *)

val render : header:string list -> string list list -> string
(** [render ~header rows]: the header, a dashed rule and the rows,
    each column padded to its widest cell. Raises [Invalid_argument]
    when a row's arity differs from the header's. The stats layer
    never prints (simlint rule D004): the experiments' [Report]
    channel emits the string. *)

(** {1 Cell formatting helpers} *)

val fms : float -> string
(** Milliseconds with 1 decimal. *)

val pct : float -> string
(** Fraction rendered as a percentage with 3 decimals. *)

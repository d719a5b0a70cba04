(** Aligned-column text tables for benchmark output. *)

type t

val create : columns:string list -> t
val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on arity mismatch. *)

val render : t -> string
(** The stats layer never prints (simlint rule D004): render to a
    string and emit through the experiments' [Report] channel. *)

(** {1 Cell formatting helpers} *)

val fms : float -> string
(** Milliseconds with 1 decimal. *)

val pct : float -> string
(** Fraction rendered as a percentage with 3 decimals. *)

val mbps : float -> string
(** Bits/s rendered as Mb/s. *)

(** Determinism & parallel-safety lint over the simulator's typed tree.

    Rules (see DESIGN.md, "Determinism invariants", and §4i for D007):

    - [D001] no module-level mutable state (toplevel [ref],
      [Hashtbl.create], [Queue.create], [Buffer.create], [Stack.create],
      [Array.make]/[init]/[create_float], [Bytes.create]/[make], array
      literals, record literals with [mutable] fields) — such state
      leaks between simulations that share the process. Built-in
      exemption: [sim_ctx.ml], the one module whose job is to own
      per-simulation state.
    - [D002] no ambient nondeterminism ([Random.*], [Unix.gettimeofday],
      [Unix.time], [Sys.time]). Built-in exemption: [rng.ml].
    - [D003] no polymorphic [Hashtbl.hash] family — its output is not
      stable across compiler versions, so ECMP spraying (and therefore
      every figure) would silently change on upgrade.
    - [D004] no direct console I/O ([Printf.printf], [print_string],
      [prerr_*], [Format.printf], ...) — stdout discipline belongs to
      the report layer (allowlisted in [simlint.allow]).
    - [D005] no [Domain]/[Mutex]/[Condition]/[Atomic] use. Built-in
      exemption: [proc_pool.ml], which reads the core count for the
      default job count.
    - [D006] no raw process spawning ([Unix.fork],
      [Unix.create_process*], [Unix.open_process*], [Unix.system]) — a
      stray fork duplicates simulation state and bypasses the worker
      pipe protocol. Built-in exemption: [proc_pool.ml].
    - [D007] no pooled [Sim_net.Packet.t] escaping its handler without
      [Packet.copy]: stores into fields/containers, capture by
      scheduler/timer closures, returns from packet handlers, double
      frees and frees through copy-less aliases (see {!Simlint_pool}).
      Built-in exemption: the owning data plane — [packet.ml],
      [pktqueue.ml], [link.ml]. Since the typed event path, a raw
      packet passed as a deferred-event payload (timer state, Event
      cell payload) outside those modules is the same escape and is
      flagged too.
    - [D008] no closure-per-event scheduling
      ([Scheduler.schedule_at]/[schedule_after]) — steady-state code
      must arm a re-armable {!Scheduler.Timer} or fill a pooled
      {!Scheduler.Event} cell; genuinely cold setup sites are
      allowlisted in [simlint.allow].

    Since v2 the analysis runs on [.cmt] files ([Cmt_format], produced
    by dune's default [-bin-annot]): identifiers are matched on
    typechecker-resolved paths, so [open]/aliases cannot hide a
    forbidden call, local shadowing cannot false-fire a rule, and D007
    keys on expression types. [simlint.allow] remains the escape hatch
    for deliberate exceptions. *)

type rule =
  Simlint_defs.rule =
  | D001
  | D002
  | D003
  | D004
  | D005
  | D006
  | D007
  | D008

val rule_id : rule -> string
val rule_of_id : string -> rule option

type finding = Simlint_defs.finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
}

val compare_finding : finding -> finding -> int

val pp_finding : finding -> string
(** [file:line:col [RULE] message] *)

val lint_structure : Typedtree.structure -> finding list
(** Findings for one typed implementation, sorted by position. Finding
    paths are the compile-time source paths recorded in locations.
    Built-in per-rule exemptions (see above) are applied here. *)

type cmt_lint = {
  cl_source : string option;
      (** the implementation's source path as recorded at compile
          time; [None] when the cmt holds no [.ml] implementation
          (interfaces, dune's generated alias modules) *)
  cl_findings : finding list;
}

val lint_cmt : string -> cmt_lint
(** Read a [.cmt] with [Cmt_format.read_cmt] and lint its
    implementation, if it has one. Raises on unreadable or
    wrong-magic files. *)

val same_source : string -> string -> bool
(** Whether two source paths name the same file, comparing normalised
    paths up to a leading-directory prefix (the lint may run from a
    different root than the compiler did). *)

val scan_tree : string -> string list * string list
(** [(cmts, mls)] under a directory (or the path itself when it is a
    [.cmt]/[.ml] file), each sorted: every [.cmt] below it — including
    inside dune's hidden [*.objs] dirs — and every visible [.ml]
    source, for coverage checking. [_build] and [.git] are skipped. *)

(** {2 Allowlist}

    One entry per line, [path:RULE], [#] comments allowed:
    {[
      # report.ml is the one module that may print
      lib/experiments/report.ml:D004
    ]} *)

type allow_entry = Simlint_defs.allow_entry = {
  a_file : string;
  a_rule : rule;
  a_line : int;
}

exception Allow_syntax of string

val parse_allow_file : string -> allow_entry list
(** Raises {!Allow_syntax} on malformed lines. *)

val apply_allow :
  allow_entry list -> finding list -> finding list * allow_entry list
(** [apply_allow entries findings] is [(kept, stale)]: findings not
    covered by any entry, and entries that suppressed nothing (stale
    entries should be warned about and removed). *)

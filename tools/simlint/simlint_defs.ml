(* Shared vocabulary of the lint: rule ids, findings, resolved-path
   helpers and the allowlist. Rule implementations live in
   Simlint_core (D001-D006) and Simlint_pool (D007). *)

type rule = D001 | D002 | D003 | D004 | D005 | D006 | D007

let rule_id = function
  | D001 -> "D001"
  | D002 -> "D002"
  | D003 -> "D003"
  | D004 -> "D004"
  | D005 -> "D005"
  | D006 -> "D006"
  | D007 -> "D007"

let rule_of_id = function
  | "D001" -> Some D001
  | "D002" -> Some D002
  | "D003" -> Some D003
  | "D004" -> Some D004
  | "D005" -> Some D005
  | "D006" -> Some D006
  | "D007" -> Some D007
  | _ -> None

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
}

let compare_finding a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c else compare (rule_id a.rule) (rule_id b.rule)

let pp_finding f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col (rule_id f.rule) f.msg

let finding_at ~rule ~msg (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    msg;
  }

(* Built-in scopes: the modules allowed to own each class of state.
   Everything else goes through the allowlist file so exceptions stay
   visible in review. D007's scope is the data plane that legitimately
   owns packets between [make] and [free]: the pool itself
   (packet.ml), the queue a packet waits in (pktqueue.ml) and the link
   whose in-flight closures carry it across the wire (link.ml). *)
let exempt file rule =
  let base = Filename.basename file in
  match rule with
  | D001 -> base = "sim_ctx.ml"
  | D002 -> base = "rng.ml"
  | D005 | D006 -> base = "proc_pool.ml"
  | D007 -> base = "packet.ml" || base = "pktqueue.ml" || base = "link.ml"
  | D003 | D004 -> false

(* ------------------------------------------------------------------ *)
(* Resolved-path helpers (typed tree: paths are what the typechecker
   resolved, not what was written, so `open`/aliasing can no longer
   hide a forbidden call and local shadowing no longer false-fires). *)

let rec raw_components = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> raw_components p @ [ s ]
  | Path.Papply (a, _) -> raw_components a
  | Path.Pextra_ty (p, _) -> raw_components p

(* Wrapped-library module names arrive as `Lib__Module`; the stdlib's
   as `Stdlib__Module` or `Stdlib.Module`. Normalise both to the bare
   module spelling so matching is stable across access paths. *)
let norm_component s =
  match String.rindex_opt s '_' with
  | Some i when i >= 1 && s.[i - 1] = '_' && i + 1 < String.length s ->
    String.sub s (i + 1) (String.length s - i - 1)
  | _ -> s

let components p =
  let comps = List.map norm_component (raw_components p) in
  match comps with "Stdlib" :: rest when rest <> [] -> rest | _ -> comps

let from_stdlib p =
  match raw_components p with
  | root :: _ -> root = "Stdlib" || String.length root >= 8 && String.sub root 0 8 = "Stdlib__"
  | [] -> false

let path_string p = String.concat "." (components p)

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)

type allow_entry = { a_file : string; a_rule : rule; a_line : int }

let normalize_path p =
  let p =
    if String.length p > 2 && String.sub p 0 2 = "./" then
      String.sub p 2 (String.length p - 2)
    else p
  in
  String.concat "/" (String.split_on_char '\\' p)

exception Allow_syntax of string

let parse_allow_line ~lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else
    match String.rindex_opt line ':' with
    | None ->
      raise
        (Allow_syntax
           (Printf.sprintf "line %d: expected `path:RULE`, got %S" lineno line))
    | Some i -> (
      let path = normalize_path (String.trim (String.sub line 0 i)) in
      let rid = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      match rule_of_id rid with
      | None ->
        raise
          (Allow_syntax
             (Printf.sprintf "line %d: unknown rule %S (expected D001-D007)"
                lineno rid))
      | Some r -> Some { a_file = path; a_rule = r; a_line = lineno })

let parse_allow_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           match parse_allow_line ~lineno:!lineno line with
           | Some e -> entries := e :: !entries
           | None -> ()
         done
       with End_of_file -> ());
      List.rev !entries)

(* Partition findings through the allowlist; also report entries that
   suppressed nothing so the file can't rot. Finding paths come from
   compiler locations and entry paths from the allow file, so both are
   compared relative to the project root. *)
let apply_allow entries findings =
  let used = Hashtbl.create 8 in
  let kept =
    List.filter
      (fun f ->
        let matching =
          List.filter
            (fun e -> e.a_rule = f.rule && normalize_path f.file = e.a_file)
            entries
        in
        List.iter (fun e -> Hashtbl.replace used e.a_line ()) matching;
        matching = [])
      findings
  in
  let stale = List.filter (fun e -> not (Hashtbl.mem used e.a_line)) entries in
  (kept, stale)

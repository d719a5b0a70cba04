(* Determinism & parallel-safety lint for the simulator libraries.

   The worker-process runner (Proc_pool) relies on every simulation
   being a pure function of its inputs: no module-level mutable
   state, no ambient randomness or wall-clock reads, no unstable
   polymorphic hashing, console output confined to the report layer,
   raw concurrency primitives and process spawning confined to
   Proc_pool, and — D007, Simlint_pool —
   no pooled packet escaping the handler it was leased to.

   Since v2 the pass runs on the *typed* tree: it reads the [.cmt]
   files dune already produces (dune passes [-bin-annot] by default)
   and walks the Typedtree, so every identifier is the path the
   typechecker resolved. `open Unix` no longer hides [gettimeofday],
   a local [let print_endline] no longer false-fires D004, and D007
   can key on expression *types* ([Sim_net.Packet.t]) rather than
   variable names. The [.ml] sources are still scanned, but only to
   verify cmt coverage: a source file with no corresponding cmt is a
   hole in the lint and is reported. *)

include Simlint_defs

(* ------------------------------------------------------------------ *)
(* D001: module-level mutable state                                    *)

let mutable_ctor p =
  let stdlib = from_stdlib p in
  match components p with
  | [ "ref" ] when stdlib -> Some "`ref`"
  | [ "Hashtbl"; ("create" | "of_seq") ] -> Some "`Hashtbl.create`"
  | [ "Queue"; "create" ] -> Some "`Queue.create`"
  | [ "Buffer"; "create" ] -> Some "`Buffer.create`"
  | [ "Stack"; "create" ] -> Some "`Stack.create`"
  | [ "Array"; ("make" | "init" | "create_float") ]
  | [ "Bytes"; ("create" | "make") ] ->
    Some ("`" ^ path_string p ^ "`")
  | _ -> None

(* Walk one module-initialisation expression; function bodies allocate
   at call time, not module init, so descent stops at lambdas. The
   typed tree tells us record mutability directly from the resolved
   label, wherever the type was declared. *)
let scan_toplevel_expr ~emit expr =
  let finding loc what =
    emit
      (finding_at ~rule:D001
         ~msg:
           (Printf.sprintf
              "module-level mutable state (%s) escapes Sim_ctx; allocate it \
               per-simulation instead"
              what)
         loc)
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_function _ -> ()
          | Typedtree.Texp_apply
              ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) ->
            (match mutable_ctor p with
            | Some what -> finding e.Typedtree.exp_loc what
            | None -> ());
            Tast_iterator.default_iterator.expr self e
          | Typedtree.Texp_record { fields; _ } ->
            if
              Array.exists
                (fun ((lbl : Types.label_description), _) ->
                  lbl.lbl_mut = Asttypes.Mutable)
                fields
            then finding e.Typedtree.exp_loc "record literal with mutable field(s)";
            Tast_iterator.default_iterator.expr self e
          | Typedtree.Texp_array _ ->
            finding e.Typedtree.exp_loc "array literal";
            Tast_iterator.default_iterator.expr self e
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it expr

let rec scan_structure_d001 ~emit (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            scan_toplevel_expr ~emit vb.vb_expr)
          vbs
      | Typedtree.Tstr_eval (e, _) -> scan_toplevel_expr ~emit e
      | Typedtree.Tstr_module mb -> scan_module_d001 ~emit mb.mb_expr
      | Typedtree.Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            scan_module_d001 ~emit mb.mb_expr)
          mbs
      | Typedtree.Tstr_include incl -> scan_module_d001 ~emit incl.incl_mod
      | _ -> ())
    str.str_items

and scan_module_d001 ~emit (mexpr : Typedtree.module_expr) =
  match mexpr.mod_desc with
  | Typedtree.Tmod_structure s -> scan_structure_d001 ~emit s
  | Typedtree.Tmod_constraint (me, _, _, _) -> scan_module_d001 ~emit me
  (* Functor bodies allocate per application; applications of opaque
     functors stay out of scope, as in v1. *)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* D002-D006: forbidden identifiers anywhere in the file               *)

let d004_toplevel =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes";
  ]

(* Bare names ([print_endline], [ref]) demand stdlib resolution so a
   local binding of the same name cannot fire the rule — the payoff of
   linting after the typechecker. Qualified names match on normalised
   resolved components, so they are caught through [open], module
   aliases and wrapped-library spellings alike. *)
let ident_rule p =
  let name = path_string p in
  match components p with
  | [ "Random"; "self_init" ] ->
    Some
      ( D002,
        "Random.self_init seeds from the environment and destroys \
         reproducibility; use Sim_engine.Rng with an explicit seed" )
  | "Random" :: _ :: _ ->
    Some
      ( D002,
        name
        ^ " draws from the ambient PRNG; thread a seeded Sim_engine.Rng \
           through instead" )
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
    Some
      ( D002,
        name
        ^ " reads the wall clock; simulations must use virtual time \
           (Sim_time)" )
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param" | "seeded_hash_param") ]
    ->
    Some
      ( D003,
        name
        ^ " is the polymorphic hash, whose value may change across compiler \
           versions; use a dedicated stable hash (see Ecmp)" )
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ] ->
    Some
      ( D004,
        name
        ^ " writes directly to the console; library code must stay silent \
           (route experiment output through Report)" )
  | [ n ] when from_stdlib p && List.mem n d004_toplevel ->
    Some
      ( D004,
        n
        ^ " writes directly to the console; library code must stay silent \
           (route experiment output through Report)" )
  | [ "Unix"; f ]
    when f = "fork" || f = "system"
         || String.starts_with ~prefix:"create_process" f
         || String.starts_with ~prefix:"open_process" f ->
    Some
      ( D006,
        name
        ^ " spawns a process; worker-process fan-out lives only in \
           Sim_engine.Proc_pool" )
  | m :: _ :: _ when m = "Domain" || m = "Mutex" || m = "Condition" || m = "Atomic"
    ->
    Some
      ( D005,
        name
        ^ " is a concurrency primitive; parallel fan-out lives only in \
           Sim_engine.Proc_pool" )
  | _ -> None

let scan_idents ~emit (str : Typedtree.structure) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> (
            match ident_rule p with
            | Some (rule, msg) -> emit (finding_at ~rule ~msg e.Typedtree.exp_loc)
            | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let lint_structure (str : Typedtree.structure) =
  let acc = ref [] in
  let emit f = if not (exempt f.file f.rule) then acc := f :: !acc in
  scan_structure_d001 ~emit str;
  scan_idents ~emit str;
  Simlint_pool.scan ~emit str;
  List.sort compare_finding !acc

type cmt_lint = {
  cl_source : string option;
      (* the implementation's source path as recorded at compile time;
         None when the cmt holds no [.ml] implementation (interfaces,
         dune's generated alias modules) *)
  cl_findings : finding list;
}

let lint_cmt path =
  let info = Cmt_format.read_cmt path in
  let source =
    match info.cmt_sourcefile with
    | Some s when Filename.check_suffix s ".ml" -> Some s
    | _ -> None
  in
  match (info.cmt_annots, source) with
  | Cmt_format.Implementation str, Some _ ->
    { cl_source = source; cl_findings = lint_structure str }
  | _ -> { cl_source = None; cl_findings = [] }

(* A source file and a cmt_sourcefile name the same module when their
   normalised paths coincide up to a leading-directory prefix (the
   lint may be invoked from a different root than the compiler was). *)
let same_source a b =
  let a = normalize_path a and b = normalize_path b in
  let suffix ~of_:whole part =
    let lw = String.length whole and lp = String.length part in
    lw >= lp
    && String.sub whole (lw - lp) lp = part
    && (lw = lp || whole.[lw - lp - 1] = '/')
  in
  a = b || suffix ~of_:a b || suffix ~of_:b a

(* Collect the inputs under [root]: every [.cmt] (descending into
   dune's hidden [*.objs] dirs, where they live) and every visible
   [.ml] source (for coverage checking). *)
let scan_tree root =
  let cmts = ref [] and mls = ref [] in
  let rec walk dir ~hidden =
    let entries = Sys.readdir dir in
    Array.sort compare entries;
    Array.iter
      (fun name ->
        if String.length name > 0 then begin
          let path = Filename.concat dir name in
          if Sys.is_directory path then begin
            if name = "_build" || name = ".git" then ()
            else if name.[0] = '.' then begin
              if Filename.check_suffix name ".objs" then walk path ~hidden:true
            end
            else walk path ~hidden
          end
          else if Filename.check_suffix name ".cmt" then cmts := path :: !cmts
          else if (not hidden) && Filename.check_suffix name ".ml" then
            mls := path :: !mls
        end)
      entries
  in
  if Sys.is_directory root then walk root ~hidden:false
  else if Filename.check_suffix root ".cmt" then cmts := [ root ]
  else if Filename.check_suffix root ".ml" then mls := [ root ];
  (List.sort compare !cmts, List.sort compare !mls)

(* Host-time self-profiling spans: wall-clock plus Gc allocation
   deltas around each experiment point. A span is measured wherever
   the point actually ran — in-process at --jobs 1, or inside a
   process-pool worker, whose span marshals back with the result — so
   the coordinating process can render and total them at any job
   count. Minor words are exact: [Gc.minor_words ()] counts every
   word allocated so far, so a point's delta is the same in any
   process and after any other point, and CI pins it. Wall time and
   the promoted, major and collection counts are host-side: they
   depend on the clock and on where the minor heap stood when the
   point began, so CI compares only their shape. *)

type span = {
  sp_wall_s : float;
  sp_minor_words : float;
  sp_promoted_words : float;
  sp_major_words : float;
  sp_minor_gcs : int;
  sp_major_gcs : int;
}

let zero =
  {
    sp_wall_s = 0.;
    sp_minor_words = 0.;
    sp_promoted_words = 0.;
    sp_major_words = 0.;
    sp_minor_gcs = 0;
    sp_major_gcs = 0;
  }

let add a b =
  {
    sp_wall_s = a.sp_wall_s +. b.sp_wall_s;
    sp_minor_words = a.sp_minor_words +. b.sp_minor_words;
    sp_promoted_words = a.sp_promoted_words +. b.sp_promoted_words;
    sp_major_words = a.sp_major_words +. b.sp_major_words;
    sp_minor_gcs = a.sp_minor_gcs + b.sp_minor_gcs;
    sp_major_gcs = a.sp_major_gcs + b.sp_major_gcs;
  }

(* [Gc.quick_stat]'s minor_words only advances at minor collections
   in OCaml 5.1, so it is read from [Gc.minor_words ()] instead. *)
let measure ~clock f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  let r = f () in
  let dt = clock () -. t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      sp_wall_s = dt;
      sp_minor_words = w1 -. w0;
      sp_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      sp_major_words = g1.Gc.major_words -. g0.Gc.major_words;
      sp_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      sp_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* One table per experiment, one row per point plus a TOTAL row the
   coordinator aggregates — this is where process-mode workers' spans
   meet. *)
let artifact ~experiment spans =
  let total = List.fold_left (fun acc (_, s) -> add acc s) zero spans in
  let rows = spans @ [ ("TOTAL", total) ] in
  Sink.Table
    (Sink.table
       ~name:(Printf.sprintf "prof-%s" experiment)
       ~columns:
         [
           Sink.column "point" Sink.str fst;
           Sink.column "wall_s" Sink.float (fun (_, s) -> s.sp_wall_s);
           (* Printed whole: a float cell keeps only 6 digits. *)
           Sink.column "minor_words" Sink.int (fun (_, s) ->
               Float.to_int s.sp_minor_words);
           Sink.column "promoted_words" Sink.float (fun (_, s) ->
               s.sp_promoted_words);
           Sink.column "major_words" Sink.float (fun (_, s) -> s.sp_major_words);
           Sink.column "minor_gcs" Sink.int (fun (_, s) -> s.sp_minor_gcs);
           Sink.column "major_gcs" Sink.int (fun (_, s) -> s.sp_major_gcs);
         ]
       rows)

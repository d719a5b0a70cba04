(* The packet-pool sanitizer's build switch, checked against the
   profile that built it (dune passes %{profile} as the only
   argument): Sanitizer_mode.on must be false in the release profile
   and true in every other. *)

let () =
  let profile = Sys.argv.(1) in
  let want = profile <> "release" in
  if Sim_engine.Sanitizer_mode.on <> want then begin
    Printf.eprintf "profile %s: Sanitizer_mode.on = %b, want %b\n" profile
      Sim_engine.Sanitizer_mode.on want;
    exit 1
  end

(** Build-profile switch for the packet-pool sanitizer.

    [on] is a compile-time constant generated by dune: [false] in the
    [release] profile, [true] in every other profile (including [dev],
    the default). Pool-owning code — {!Sim_net.Packet} — guards its
    generation checks, field poisoning and live-object accounting with
    [if Sanitizer_mode.on then ...], so a release build pays one
    immutable-bool branch per guarded operation and allocates nothing,
    while debug builds dynamically catch use-after-free, double-free
    and pool leaks that the static D007 lint cannot prove.
    [test/sanitizer_profile.ml] checks under [dune runtest] that [on]
    is [false] exactly when the building profile is [release]. *)

val on : bool

#!/usr/bin/env bash
# Print the deterministic lines of one perfbench workload at one seed
# (default 1).
#
# Usage, from the root of a checkout:
#
#     tools/perfbench_pin.sh fattree-packet > test/expected/perfbench-packet.txt
#     tools/perfbench_pin.sh fattree-packet 97 > test/expected/perfbench-packet-s97.txt
#
# Runs `perfbench/run.py --seed SEED --seconds 0 --trace 1` (two untraced
# and two traced simulations of the seed's first input) and keeps only
# the lines that repeat exactly from run to run and host to host: work
# counters, simulated outputs and the correctness tallies. Host-time
# lines (engine.ns_per_event, gc.time_s, span.*, obs.overhead_s,
# host.*) and heap-layout lines (gc.promoted_words,
# gc.major_collections, workload.heap_bytes_per_flow,
# obs.overhead_heap_mb, gc.lost_events) are dropped, as is the JSON
# result line.
#
# gc.minor_words and gc.words_per_event are rounded to 4 significant
# digits because perfbench/measure.ml reads them from Gc.quick_stat,
# whose minor-word count in OCaml 5.1 advances only at minor
# collections. The delta around one Scenario.run then depends on
# where the minor heap stood when the run began, and so on what the
# process allocated before it, which includes the executable's
# absolute path: the same tree checked out at paths of 10, 15, 20 and
# 50 characters counted 17307908, 17307910, 17307912 and 17307918
# words on fattree-fluid. Rounded, the line still moves with any
# change of 0.05% or more. Gc.minor_words () is exact (lib's
# Prof.measure reads it), so the rounding can go once measure.ml
# does too.
#
# CI diffs the output against
# test/expected/perfbench-{packet,fluid,hybrid}.txt (seed 1) and
# test/expected/perfbench-{packet,fluid,hybrid}-s97.txt (the held-out
# seed 97); a change that moves a pinned counter regenerates the file
# with this script.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 fattree-packet|fattree-fluid|fattree-hybrid [SEED]" >&2
  exit 2
fi

python3 perfbench/run.py --workload "$1" --seed "${2:-1}" --seconds 0 --trace 1 \
  | awk '
function sig4(v,  e) {
  if (v == 0) return "0"
  e = 10 ^ (int(log(v) / log(10)) - 3)
  return v >= 10000 ? sprintf("%.0f", int(v / e + 0.5) * e) : sprintf("%.4g", v)
}
$2 == "gc.minor_words" || $2 == "gc.words_per_event" {
  i = index($0, " " $3 " ")
  $0 = substr($0, 1, i) sprintf("%" length($3) "s", sig4($3 + 0)) substr($0, i + 1 + length($3)) " (4 significant digits)"
}
$2 ~ /^(engine\.events|engine\.event_cells|net\..*|tcp\..*|mmptcp\..*|fluid\..*|hybrid\..*|gc\.minor_words|gc\.words_per_event|sim\..*|check\.bytes_truncated|operations|failed)$/'

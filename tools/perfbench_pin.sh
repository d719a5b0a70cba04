#!/usr/bin/env bash
# Print the deterministic lines of one perfbench workload at seed 1.
#
# Usage, from the root of a checkout:
#
#     tools/perfbench_pin.sh fattree-packet > test/expected/perfbench-packet.txt
#
# Runs `perfbench/run.py --seed 1 --seconds 0 --trace 1` (two untraced
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
# digits. OCaml 5.1's minor-word count around one Scenario.run moves
# by a few words with what the process allocated before it, which
# includes the executable's absolute path: the same tree checked out
# at paths of 10, 15, 20 and 50 characters counted 17307908, 17307910,
# 17307912 and 17307918 words on fattree-fluid. Rounded, the line
# still moves with any change of 0.05% or more.
#
# CI diffs the output against
# test/expected/perfbench-{packet,fluid,hybrid}.txt; a change that moves
# a pinned counter regenerates the file with this script.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 fattree-packet|fattree-fluid|fattree-hybrid" >&2
  exit 2
fi

python3 perfbench/run.py --workload "$1" --seed 1 --seconds 0 --trace 1 \
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

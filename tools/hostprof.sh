#!/usr/bin/env bash
# Host-time profile of one perfbench workload, by function.
#
# Usage, from the root of a checkout:
#
#     tools/hostprof.sh fattree-packet [RUNS]
#
# Builds perfbench/main.exe in the release profile, as perfbench/run.py
# does, then runs its simulation child (`--child sim`, seed 1) RUNS
# times (default 40), cycling over the seed's four inputs, each under
# `gprofng collect app -p 1` (clock profiling, 1 ms interval). One such
# run of fattree-packet collects about 15 samples, too few to rank
# functions; forty give several hundred. The output is
# `gprofng display text -functions` over all the runs' experiments at
# once: the merged table of exclusive and inclusive CPU time per
# function, heaviest first.
#
# Last it prints the coverage: the CPU seconds the table holds (its
# <Total> row) beside the CPU seconds the children used (user plus
# system, from bash's `time`). gprofng's clock profiling can record
# far less than the children ran: on a 2-vCPU VM it held 0.9 % of it
# (0.100 s of 11.2 s over 12 fattree-fluid children), and the top rows
# of such a table did not predict which change paid.
# Below 50 % coverage the script warns on stderr; read the table as a
# hint then, and check a lead with paired perfbench runs.
#
# Needs gprofng (GNU binutils). It is a local tool: CI does not run it.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 fattree-packet|fattree-fluid|fattree-hybrid [RUNS]" >&2
  exit 2
fi
workload=$1
runs=${2:-40}

build_dir=$PWD/.perfbench/build
mkdir -p .perfbench
DUNE_CACHE=disabled dune build --root . --profile release \
  --build-dir "$build_dir" ./perfbench/main.exe >&2
exe=$build_dir/default/perfbench/main.exe

dir=$(mktemp -d "${TMPDIR:-/tmp}/hostprof.XXXXXX")
trap 'rm -rf "$dir"' EXIT

# `time` writes to the group's stderr, so a failing run reports on
# fd 3, the script's own stderr.
TIMEFORMAT='%U %S'
exec 3>&2
{
  time for ((r = 0; r < runs; r++)); do
    gprofng collect app -p 1 -O "$dir/r$r.er" \
      "$exe" --child sim --workload "$workload" --seed 1 --input $((r % 4)) \
      > /dev/null 2> "$dir/collect.log" \
      || { cat "$dir/collect.log" >&3; exit 1; }
  done
} 2> "$dir/cpu.txt"
gprofng display text -functions "$dir"/r*.er | tee "$dir/table.txt"

read -r user sys < "$dir/cpu.txt"
sampled=$(awk '$NF == "<Total>" { print $1; exit }' "$dir/table.txt")
awk -v s="${sampled:-0}" -v u="$user" -v y="$sys" -v n="$runs" 'BEGIN {
  cpu = u + y
  pct = cpu > 0 ? 100 * s / cpu : 0
  printf "coverage: %.3f s sampled of %.3f s children CPU over %d runs (%.1f %%)\n", s, cpu, n, pct
  if (pct < 50)
    printf "hostprof: warning: the table holds %.1f %% of the CPU time; treat its ranking as a hint\n", pct > "/dev/stderr"
}'

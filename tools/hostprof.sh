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

for ((r = 0; r < runs; r++)); do
  gprofng collect app -p 1 -O "$dir/r$r.er" \
    "$exe" --child sim --workload "$workload" --seed 1 --input $((r % 4)) \
    > /dev/null 2> "$dir/collect.log" \
    || { cat "$dir/collect.log" >&2; exit 1; }
done
gprofng display text -functions "$dir"/r*.er

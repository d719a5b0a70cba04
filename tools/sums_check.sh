#!/usr/bin/env bash
# Check an --out tree against a committed sha256 list.
#
# Usage, from the root of a checkout:
#
#     tools/sums_check.sh test/expected/fig1a-tiny-probe.sha256 DIR
#
# Every file the list names must exist in DIR with the listed digest
# (`sha256sum --check --strict`), and DIR must hold no other file
# besides manifest.json and prof-* (wall-clock timings and host-time
# spans, never deterministic). Exits non-zero on either failure.
#
# A list is written with the same exclusions:
#
#     (cd DIR && ls | LC_ALL=C sort | grep -v -e '^manifest\.json$' \
#        -e '^prof-' | xargs sha256sum) > LIST
set -euo pipefail

list=$(realpath "$1")
dir=$2

(cd "$dir" && sha256sum --check --strict --quiet "$list")
diff <(cut -c67- "$list") \
  <(ls "$dir" | LC_ALL=C sort | grep -v -e '^manifest\.json$' -e '^prof-')

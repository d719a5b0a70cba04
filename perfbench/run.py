#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fattree-packet --seed 1 --seconds 10 --trace 0

The benchmark is built with dune in the release profile into
.perfbench/build, with dune's shared cache off, so nothing is read or
written outside the checkout. Every argument is passed on to the
benchmark executable (perfbench/main.ml), whose last line of output is
the JSON result. Exits non-zero, printing no result, when the build
fails.

The benchmark runs with address-space randomisation off (Linux
personality ADDR_NO_RANDOMIZE, which its child processes inherit). With
it on, one simulation's promoted words and peak heap vary from one
process to the next, the peak heap by up to 2%; with it off they repeat
exactly.
"""

import ctypes
import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".perfbench", "build"))
TARGET = "./perfbench/main.exe"
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run in the benchmark's process before exec: turn randomisation off."""
    personality = getattr(ctypes.CDLL(None, use_errno=True), "personality", None)
    current = personality(0xFFFFFFFF) if personality else -1
    if current == -1 or personality(current | ADDR_NO_RANDOMIZE) == -1:
        os.write(2, b"perfbench: address randomisation stays on; peak heap may vary\n")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env,
                          preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())

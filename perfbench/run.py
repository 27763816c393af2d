#!/usr/bin/env python3
"""Build the benchmark and bosec (release profile) and run one workload.

    python3 perfbench/run.py --workload fullopt-64|baseline-500|serve-mix|fullopt-200 \\
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. The build goes to .bench_build/
and the servers' sockets and caches to .bench_build/work/; both stay
inside the checkout. The last line of standard output is the result
object printed by perfbench/main.exe. Build output goes to standard
error; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["perfbench/main.exe", "bin/bosec.exe"]


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    # --cache=disabled: the shared dune cache lives outside the checkout.
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
             "--cache=disabled"]
    try:
        built = subprocess.run(build + TARGETS, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run dune: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out = os.path.join(BUILD_DIR, "default")
    work = os.path.join(BUILD_DIR, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(out, "perfbench", "main.exe"),
        *sys.argv[1:],
        "--bosec",
        os.path.join(out, "bin", "bosec.exe"),
        "--work",
        work,
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

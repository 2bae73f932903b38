#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload mpi_apps --seed 1 --seconds 20 --trace 0

Run it from the repository root. It configures and builds perfbench/ (the
simulator libraries from src/ plus the colbench driver) into the directory
named by CARGO_TARGET_DIR, default .bench_build, then runs colbench with the
same arguments. colbench prints its result as the last line of stdout; the
build log goes to stderr. A traced run writes its span log under
.bench_out/. `--write-fingerprints perfbench/fingerprints.txt` regenerates
the committed fingerprints.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path.cwd()
    bench = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file() or not (bench / "CMakeLists.txt").is_file():
        print("run.py: run from the repository root; src/ and perfbench/ are required",
              file=sys.stderr)
        return 2
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(build / "tmp"))
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "colbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("run.py: build timed out", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return 1

    # colbench finds perfbench/fingerprints.txt and writes .bench_out/
    # relative to the repository root, the working directory here.
    try:
        return subprocess.run([str(build / "colbench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: colbench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload stream400 --seed 42 --seconds 40 --trace 0

Run from the repository root. Configures and builds perfbench/ (the
simulator libraries from src/ plus the rasc_perfbench program) as an
optimized build under $CARGO_TARGET_DIR (default .bench_build), then runs
rasc_perfbench with the given arguments. Build output goes to stderr; its
stdout is passed through, so the last line is the result JSON.
Exits nonzero without a result when the build or the run fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop rasc_perfbench well before that.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rasc_perfbench",
                  "-j", jobs])
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs share one build tree; build one at a time.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "rasc_perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "perfbench"))
    sys.stdout.flush()
    try:
        code = subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of pim: builds pim and the benchmark program, then runs one workload.

    python3 e2ebench/run.py --workload cold_calibrate|yield_sizing|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --test     # build, then run the benchmark's own tests

Run it from anywhere; it works inside the checkout that holds it. The
build goes to .bench_build/ at the checkout root (pim with its own
CMakeLists.txt, then this directory's program against it), scratch files to
.bench_build/work/. The last line of stdout is the result object. See
README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cold_calibrate", "yield_sizing", "serve_mixed")
# The first run of a checkout builds; every later run must end well inside
# the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    """Runs a build step, appending its output to `log`; exits on failure."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed: {' '.join(cmd)} (log: {log})", 3)


def build():
    """Builds pim's libraries and the benchmark program; returns its build dir."""
    sources = (ROOT / "CMakeLists.txt", ROOT / "src" / "api" / "pim_api.hpp")
    if not all(path.is_file() for path in sources):
        fail(f"no pim sources next to the benchmark (looked in {ROOT})", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    pim = BUILD / "pim"
    bench = BUILD / "e2ebench"
    if not (pim / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(ROOT), "-B", str(pim), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                   + generator, log)
    run_logged(["cmake", "--build", str(pim), "--target", "pim_serve", "-j", jobs], log)
    if not (bench / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH), "-B", str(bench),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DPIM_ROOT={ROOT}",
                    f"-DPIM_BUILD={pim}"] + generator, log)
    run_logged(["cmake", "--build", str(bench), "-j", jobs], log)
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.test and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench = build()
    if args.test:
        tests = ["ctest", "--test-dir", str(bench), "--output-on-failure"]
        sys.exit(subprocess.run(tests).returncode)

    work = BUILD / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Relative paths keep the pimd socket path short whatever the checkout path.
    cmd = [str(bench / "e2e_bench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str((BENCH / "data").relative_to(ROOT)), "--work", str(work.relative_to(ROOT))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s", 5)
    if done.returncode != 0:
        fail(f"the benchmark exited with code {done.returncode}", done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""DDT end-to-end benchmark entry point (see NOTES.md).

    python3 ddtbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark and the library from source into .bench_build/ at the
root of the checkout (the first run configures and compiles; later runs
only check the build is current), runs one workload, and prints its result
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Traced runs (--trace 1) also leave a Chrome trace and a per-layer JSON file
in .bench_build/out/. Exits non-zero without a result line when the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("table2_corpus", "campaign_threads", "campaign_fleet", "fuzz_rtl8029")
# A run must end within 180 s; the timed part is --seconds of that.
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "ddtbench"
WORK_DIR = ROOT / ".bench_build"
BUILD_DIR = WORK_DIR / "ddtbench"
# Compilers and the benchmark keep their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=str(WORK_DIR / "tmp"))


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds the ddtbench target; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=ENV).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "ddtbench", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr, env=ENV).returncode == 0


def ledger_dir(binary):
    """Reference outputs are shared by the runs of one build only."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    return WORK_DIR / "ledger" / digest


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda text: int(text, 0))
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    binary = BUILD_DIR / "ddtbench"
    command = [str(binary), "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(WORK_DIR / "out"),
               "--ledger-dir", str(ledger_dir(binary))]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=ENV,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not valid_result(lines[-1]):
        log(f"{args.workload} failed (exit {run.returncode})")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

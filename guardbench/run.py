#!/usr/bin/env python3
"""Build bench_guardian from this checkout's sources and run one workload.

Run from the repository root:

    python3 guardbench/run.py --workload infer --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the root;
the first run configures and compiles, later runs only relink what changed.
The benchmark's files (BENCH_guardian*.json, trace.json) land in
<build dir>/out. Build output goes to stderr; stdout carries the
benchmark's metric lines and, last, its one-line JSON verdict. The exit
code is the benchmark's.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
VERDICT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group and reaps the whole group, so no
    forked manager worker outlives the run. Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {cmd[0]} exceeded {timeout} s; killed",
              file=sys.stderr)
        return 124, b""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out or b""


def build(build_dir):
    if not (ROOT / "src" / "guardian" / "process_server.hpp").is_file():
        print("run.py: the repository sources are missing; cannot build",
              file=sys.stderr)
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release", *generator],
                      BUILD_TIMEOUT_S)
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(build_dir), "--target",
                   "bench_guardian", "-j", jobs], BUILD_TIMEOUT_S)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["infer", "train", "mixed", "churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        return 2
    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)
    code, out = run([str(build_dir / "bench_guardian"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace",
                     str(args.trace), "--out", str(out_dir)],
                    RUN_TIMEOUT_S, capture=True)
    text = out.decode()
    lines = text.splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        verdict = None
    if code == 0 and (not isinstance(verdict, dict)
                      or set(verdict) != VERDICT_KEYS):
        print("run.py: the benchmark printed no verdict", file=sys.stderr)
        code = 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run perfbench, the simulator's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_paper --seed 42 --seconds 25 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the core
library plus the perfbench program, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only re-check the build.
Build output goes to stderr. The program's stdout is passed through; its
last line is the JSON result, checked here against BENCHMARK.json's
metric lists. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train_paper", "sweep_lowloc", "serve_lru")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_checked(cmd, timeout, what):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if done.returncode != 0:
        fail(f"{what} failed (exit {done.returncode})")


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "sys" / "experiment.h").is_file():
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(out), "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S, "build")
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def source_id():
    """Commit when the checkout is a git repository, plus a digest of
    the simulator and benchmark sources (checkouts may carry no .git)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += [p for p in (ROOT / tree).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds expects 1..60", 1)
    if args.seed < 0:
        fail("--seed expects a non-negative integer", 1)

    out = build_dir()
    binary = build(out)
    env = dict(os.environ)
    env["SP_TRACE_CACHE"] = str(out / "trace-cache")
    env.pop("SP_FAULTS", None)  # the chaos knob must not reach a measurement
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # Publish the trace-cache entry in its own process, so the
    # measuring process starts warm and never pays generation.
    try:
        prepared = subprocess.run([str(binary), *common, "--prepare"],
                                  cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("trace preparation timed out")
    if prepared.returncode != 0:
        fail(f"trace preparation failed (exit {prepared.returncode})")

    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(binary), *common, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(),
           "--spans", str(spans / f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark run failed (exit {done.returncode})")

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no JSON result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics {sorted(result['metrics'])} != BENCHMARK.json's "
             f"{sorted(want)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset, then runs one
workload.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
provenance block and every metric with its unit and sample count.  A traced
run (--trace 1) also writes perfbench/results/BENCH_layers.<workload>.json.
Exits non-zero, without a result line, when the build fails; exits
non-zero after the result line when an operation or check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stw_full_3way", "cg_incr_stream", "fleet_journal_dedup")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build(out_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (out_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = out_dir / "perfbench"
    return binary if binary.exists() else None


def source_digest():
    """SHA-256 over the library and benchmark sources: the provenance of a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE / "src", HERE / "CMakeLists.txt"):
        files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    binary = build(build_dir())
    if binary is None:
        log("build failed")
        return 1

    env = dict(os.environ)
    # Pin glibc's allocator thresholds at the values a long-running process
    # adapts to (large blocks stay on the heap, the heap is not trimmed).
    # Left adaptive, the thresholds move with the allocation history, and
    # the page faults of re-mapped image buffers flip a run's full-commit
    # time between two modes about 3x apart.
    env["GLIBC_TUNABLES"] = ("glibc.malloc.mmap_threshold=33554432:"
                             "glibc.malloc.trim_threshold=1073741824")
    commit = git_commit()
    env["PERFBENCH_GIT_COMMIT"] = commit if commit else "none (source sha256 " + source_digest() + ")"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        command += ["--layers-out", str(results / f"BENCH_layers.{args.workload}.json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no result line (exit {run.returncode})")
        sys.stdout.write(run.stdout)
        return 1

    status = run.returncode
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - set(result['metrics']))}, extra "
            f"{sorted(set(result['metrics']) - expected)}")
        status = status or 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())

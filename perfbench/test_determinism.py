#!/usr/bin/env python3
"""The benchmark's own test: seeds decide everything the sim clock decides.

    python3 perfbench/test_determinism.py

Builds the benchmark (as run.py does), then runs every workload twice with
one seed and once with another, at the shortest run length.  With the same
seed, every sim-clock metric, every count and the fleet digest must be
identical (the "fingerprint" lines); with a different seed, the fleet
digest must differ.  Host-clock metrics are not compared.  The traced
fleet run is repeated too: its per-layer counts must be identical.
Exits 0 when all of that holds.
"""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's build step)

WORKLOADS = run.WORKLOADS
SEED_A, SEED_B = 11, 12


def fingerprint(binary, workload, seed, trace=0):
    result = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{result.stdout}{result.stderr}")
    lines = result.stdout.splitlines()
    found = {}
    for line in lines:
        if line.startswith("fingerprint "):
            key, _, value = line[len("fingerprint "):].partition(" = ")
            found[key] = value
        elif trace and line.startswith("metric ") and " count " in line:
            name = line.split()[1]
            found[name] = line.split()[2] + " " + line.split()[-1]
    return found


def main():
    binary = run.build(run.build_dir())
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    failures = []
    for workload in WORKLOADS:
        first = fingerprint(binary, workload, SEED_A)
        again = fingerprint(binary, workload, SEED_A)
        other = fingerprint(binary, workload, SEED_B)
        if not first:
            failures.append(f"{workload}: no fingerprint printed")
        if first != again:
            diff = {k: (first.get(k), again.get(k)) for k in set(first) | set(again)
                    if first.get(k) != again.get(k)}
            failures.append(f"{workload}: same seed, different fingerprint {diff}")
        if workload == "fleet_journal_dedup":
            digests = [k for k in first if k.startswith("fleet_digest")]
            if not digests or any(first[k] == other.get(k) for k in digests):
                failures.append(f"{workload}: seeds {SEED_A} and {SEED_B} gave the same fleet digest")
        print(f"{workload}: {len(first)} fingerprint values compared", flush=True)
    traced = [fingerprint(binary, "fleet_journal_dedup", SEED_A, trace=1) for _ in range(2)]
    if traced[0] != traced[1]:
        failures.append("fleet_journal_dedup traced: per-layer counts differ between runs")
    for failure in failures:
        print("FAIL", failure)
    print("determinism:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

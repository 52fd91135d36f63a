"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that
each run passes its output checks and prints exactly the metrics that
``BENCHMARK.json`` names, with their units.  Then checks that the
benchmark fails cleanly, printing no result, in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    cmd = [sys.executable] + command[1:] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
        "--scale", "toy",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
                          check=False)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{workload} trace={trace}: exit {done.returncode}: {done.stderr.strip()}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
        problems.append(f"checks failed: {failed}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        problems.append(f"metrics missing {missing} extra {extra} unit mismatch {units}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            problems.append(f"{name} is not a finite number: {value!r}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def check_bare_directory() -> list[str]:
    """Without the package source the benchmark must exit non-zero and print no result."""
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run(bare, "cli_files", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(bare))
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

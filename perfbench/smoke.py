#!/usr/bin/env python3
"""Quick self-check of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/smoke.py

Runs every workload at ``--size tiny`` untraced and traced. Asserts that
the untraced report prints each end-to-end metric with its unit and sample
count, that the result line carries every metric of ``BENCHMARK.json``,
that no query fails on any workload, and that pinboard prints its count of
the known symbolic ``theta_subset`` defect.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PRINTED = {
    "throughput_qps": r"throughput_qps\s+\S+ 1/s\s+\((\d+) queries",
    "latency_p50_ms": r"latency_p50_ms\s+\S+ ms\s+\(n=(\d+)\)",
    "latency_tail_ms": r"latency_tail_ms\s+\S+ ms\s+\(p[\d.]+, n=(\d+), \d+ beyond\)",
    "failed_frac": r"failed_frac\s+\S+\s+\(\d+ of (\d+) queries\)",
    "setup_s": r"setup_s\s+\S+ s\s+\(median of n=(\d+) set-ups",
    "peak_rss_mb": r"peak_rss_mb\s+\S+ MB\s+\(n=(\d+) process\)",
}


def run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        name = w["name"]
        text, result = run(name, 0)
        for metric, pattern in PRINTED.items():
            if not re.search(pattern, text):
                problems.append(f"{name}: {metric} not printed with unit and sample count")
        missing = {m["name"] for m in SPEC["end_to_end"]} - set(result["metrics"])
        if missing:
            problems.append(f"{name}: result line lacks {sorted(missing)}")
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} queries failed")
        _, traced = run(name, 1)
        missing = {m["name"] for m in SPEC["per_layer"]} - set(traced["metrics"])
        if missing:
            problems.append(f"{name} traced: result line lacks {sorted(missing)}")
        if name == "pinboard" and "known defect" not in text:
            problems.append("pinboard: theta_subset defect count not printed")
        if traced["failed"]:
            problems.append(f"{name} traced: {traced['failed']} queries failed")
        print(f"{name}: {result['attempted']} queries, failed_frac "
              f"{result['failed'] / result['attempted']:.4g}; traced {traced['attempted']} queries")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke run passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

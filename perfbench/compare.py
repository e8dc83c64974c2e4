#!/usr/bin/env python3
"""Repeated runs of the benchmark, and comparison of two library versions.

    python3 perfbench/compare.py repeat --workload classify --runs 10
    python3 perfbench/compare.py pairs --base-src ../parent/src --workload verify --runs 10

``repeat`` runs one workload (or ``all``) ``--runs`` times, each with its
own seed (``--first-seed``, ``--first-seed`` + 1, ...), and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, the interquartile range as a share of the median. A
spread above the metric's bound in ``BENCHMARK.json`` is reported as
unsteady, one above a third of it as marginal.

``pairs`` runs ``--runs`` pairs of the library under ``--base-src`` and the
one under ``--src`` (default: this checkout's ``src/``) with identical
benchmark code, one seed per pair, alternating which side runs first. Per
metric it reports each side's median, quartiles and spread, the gap
between the medians as a share of the base's, and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither), its median is better and the medians differ by more than the
  base's interquartile range, and no more queries fail than on the base;
* ``regression``: the change's median is worse than the base's by more than
  the metric's bound;
* ``unresolved``: the base's spread exceeds the bound, unless every change
  run beats every base run;
* ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", str(src)],
        stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with status {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(workload=workload, seed=seed, src=str(src))
    return result


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return q1, median, q3


def workloads(name: str) -> list[str]:
    return [w["name"] for w in spec()["workloads"]] if name == "all" else [name]


def repeat(args) -> int:
    metrics = spec()["end_to_end"]
    worst = 0.0
    for workload in workloads(args.workload):
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i, args.seconds, args.src))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed {failed} of {attempted} queries")
        for m in metrics:
            q1, median, q3 = quartiles(values(results, m["name"]))
            spread = (q3 - q1) / median
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            state = ("unsteady" if spread > m["bound"]
                     else "marginal" if spread > m["bound"] / 3 else "steady")
            print(f"  {m['name']:<16} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f"{m['unit']:<4} spread {spread:7.2%} (bound {m['bound']:.0%}) {state}")
    print(f"largest spread as a share of its bound, set-up excluded: {worst:.2f}")
    return 0


def verdict(m: dict, base: list[float], change: list[float], fewer_failures: bool) -> str:
    sign = 1 if m["better"] == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if (wins >= 0.9 * len(base) and sign * (c_med - b_med) > 0
            and abs(c_med - b_med) > b_q3 - b_q1 and fewer_failures):
        return f"gain ({wins}/{len(base)} pairs won)"
    if sign * (c_med - b_med) < -m["bound"] * abs(b_med):
        return f"regression ({wins}/{len(base)} pairs won)"
    if (b_q3 - b_q1) / b_med > m["bound"] and not all_better:
        return "unresolved (base spread above bound)"
    return f"no regression ({wins}/{len(base)} pairs won)"


def pairs(args) -> int:
    metrics = spec()["end_to_end"]
    for workload in workloads(args.workload):
        base, change = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            order = [(args.base_src, base), (args.src, change)]
            for src, into in order if i % 2 == 0 else order[::-1]:
                into.append(run_once(workload, seed, args.seconds, src))
        b_failed = sum(r["failed"] for r in base)
        c_failed = sum(r["failed"] for r in change)
        print(f"{workload}: {args.runs} pairs, failed queries base {b_failed}, change {c_failed}")
        for m in metrics:
            b, c = values(base, m["name"]), values(change, m["name"])
            b_q1, b_med, b_q3 = quartiles(b)
            c_q1, c_med, c_q3 = quartiles(c)
            print(f"  {m['name']:<16} base {b_med:<10.6g}[{b_q1:.6g}, {b_q3:.6g}]  "
                  f"change {c_med:<10.6g}[{c_q1:.6g}, {c_q3:.6g}] {m['unit']:<4} "
                  f"spreads {(b_q3 - b_q1) / b_med:.1%}, {(c_q3 - c_q1) / c_med:.1%}; "
                  f"gap {(c_med - b_med) / b_med:+.1%} (bound {m['bound']:.0%}); "
                  f"{verdict(m, b, c, c_failed <= b_failed)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in ("repeat", "pairs"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
        p.add_argument("--src", type=Path, default=ROOT / "src")
    sub.choices["pairs"].add_argument("--base-src", type=Path, required=True)
    args = parser.parse_args(argv)
    return repeat(args) if args.mode == "repeat" else pairs(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the subrep library.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 1

Workloads: classify, verify, pinboard and survey (see ``workloads.py``).
Each runs in its own process, as a closed loop with one client and one
thread: the next query starts when the previous one returns. A query makes
in-process the calls the matching CLI command makes: parse the generated
text, call the library, and serialise the payload with ``json.dumps``.
Interpreter start-up is outside the timing; importing ``subrep`` is part of
set-up. The timed phase runs whole rounds of the seeded input pool (cycling
the pool if it runs out) until at least ``--seconds`` have passed.

Every output is checked by ``reference.py``, which does not use the library.
On ``pinboard``, after the timed phase, ``theta_subset`` is run untimed on
the symbolic pairs of the first ``PROBE_ROUNDS`` rounds, where it has a
known defect, and how many it gets wrong is printed as a count of its own
(per-layer metric ``pinboard.disagreements``); the timed queries do not
call it on symbolic pairs, so the defect does not make them fail.
The report prints each end-to-end metric with its unit and sample count,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):
  throughput_qps   queries completed per second of the timed phase
  latency_p50_ms   median time per query
  latency_tail_ms  the highest of p90, p99 and p99.9 with at least 10
                   samples beyond it (p50 if none has)
  failed_frac      queries that raised or failed their check, per query
                   kind; carried by ``failed``/``attempted`` in the JSON
  setup_s          from before ``import subrep`` to the first timed query
                   (generate inputs, write and read their files, fill the
                   pattern caches); median of 9 set-ups in fresh processes
  peak_rss_mb      peak resident memory of the workload process

``--trace 1`` runs whole rounds for half of ``--seconds`` untraced, then the
same rounds again with every layer entry point wrapped (``tracing.py``),
checks that both passes give the same outputs, and reports the per-layer
metrics of ``BENCHMARK.json`` per round of the workload, plus
``trace.overhead_frac``, the traced pass's extra time over the untraced one.
Spans are written to ``perfbench/.work/traces/``.

Exit status is 0 when a result was printed, whatever the checks found, and
2 when the library sources are missing (``--src``, default ``src/``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Query, theta_defect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_SAMPLES = 9
PERCENTILES = (90, 99, 99.9)
PROBE_ROUNDS = 100


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# set-up


def set_up(wl, seed: int, size: str, src: Path):
    """Import the library, generate the seeded pool, write it to a file and
    read it back, and fill the library's pattern caches."""
    start = perf_counter()
    sys.path.insert(0, str(src))
    import subrep
    import subrep.cli  # noqa: F401  (the queries call parse functions from it)

    rounds = wl.rounds(random.Random(seed), size)
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{wl.name}-{os.getpid()}.jsonl"
    try:
        with path.open("w") as fh:
            for queries in rounds:
                fh.write(json.dumps([q.text for q in queries]) + "\n")
        with path.open() as fh:
            texts = [json.loads(line) for line in fh]
    finally:
        path.unlink(missing_ok=True)
    rounds = [[Query(q.kind, text, q.data)
               for q, text in zip(queries, round_texts)]
              for queries, round_texts in zip(rounds, texts)]
    for kind in subrep.PatternKind:
        subrep.pattern_poset(kind)
    subrep.obstruction_patterns()
    return subrep, rounds, perf_counter() - start


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size, "--src", str(args.src)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# timed phase


@dataclass
class Phase:
    rounds: int
    elapsed: float
    latencies: array
    outputs: dict    # (round, slot) -> output of its first run, None if it raised
    errors: dict     # (round, slot) -> what the first run raised
    seen: Counter    # (round, slot) -> runs
    unstable: Counter  # (round, slot) -> runs whose output differed from the first


def new_phase() -> Phase:
    return Phase(0, 0.0, array("d"), {}, {}, Counter(), Counter())


def run_rounds(run, sr, rounds, seconds: float | None = None, count: int | None = None,
               first: int = 0, into: Phase | None = None) -> Phase:
    """Closed loop over whole rounds, starting at round ``first`` of the
    pool, until ``seconds`` pass or ``count`` rounds are done; the results
    are added to ``into`` if given."""
    phase = new_phase() if into is None else into
    done = 0
    start = perf_counter()
    while True:
        r = (first + done) % len(rounds)
        for j, q in enumerate(rounds[r]):
            error = None
            t0 = perf_counter()
            try:
                out = run(sr, q)
            except Exception as exc:  # a failed query is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            phase.latencies.append(perf_counter() - t0)
            key = (r, j)
            if key in phase.outputs:
                phase.unstable[key] += out != phase.outputs[key]
            else:
                phase.outputs[key] = out
                if error is not None:
                    phase.errors[key] = error
            phase.seen[key] += 1
        done += 1
        elapsed = perf_counter() - start
        if done == count or (count is None and elapsed >= seconds):
            phase.rounds += done
            phase.elapsed += elapsed
            return phase


def tally(wl, sr, rounds, phase: Phase, mismatched=frozenset()):
    """Attempted and failed queries per kind, and a few failure reasons."""
    attempted: Counter = Counter()
    failed: Counter = Counter()
    reasons: list[str] = []
    for key, runs in phase.seen.items():
        q = rounds[key[0]][key[1]]
        attempted[q.kind] += runs
        reason = phase.errors.get(key)
        if reason is None and key in mismatched:
            reason = "traced output differs from the untraced one"
        if reason is None:
            try:
                reason = wl.check(sr, q, phase.outputs[key])
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        bad = runs if reason else phase.unstable[key]
        if bad and not reason:
            reason = "output changed between runs of the same query"
        failed[q.kind] += bad
        if reason:
            reasons.append(f"{q.kind}: {reason}")
    return attempted, failed, reasons


def latency(lat) -> tuple[float, tuple[float, float, int]]:
    """Median, and (percentile, value, samples beyond) of the tail."""
    xs = sorted(lat)
    n = len(xs)
    tail = (50, xs[math.ceil(n / 2) - 1], n - math.ceil(n / 2))
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            tail = (p, xs[rank - 1], n - rank)
    return statistics.median(xs), tail


def defect_probe(wl, sr, rounds) -> int | None:
    """The ``theta_subset`` defect count on pinboard, printed; None elsewhere."""
    if wl.name != "pinboard":
        return None
    wrong, pairs, examples = theta_defect(sr, rounds, PROBE_ROUNDS)
    print(f"  known defect (ROADMAP item 1): theta_subset wrong on {wrong} of {pairs} "
          f"symbolic pairs (untimed, not counted in failed_frac)")
    for text in examples:
        print(f"    e.g. {text}")
    return wrong


def print_failures(attempted, failed, reasons) -> None:
    for kind in sorted(attempted):
        print(f"  {kind:<22} failed {failed[kind]} of {attempted[kind]}")
    for reason in reasons[:5]:
        print(f"  e.g. {reason}")
    if len(reasons) > 5:
        print(f"  ... {len(reasons) - 5} more distinct failing queries")


def end_to_end(args, wl, sr, rounds, setup_s: float) -> dict:
    phase = run_rounds(wl.run, sr, rounds, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons = tally(wl, sr, rounds, phase)
    setups = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
    n = len(phase.latencies)
    p50, (tail_p, tail_s, beyond) = latency(phase.latencies)
    total_failed = sum(failed.values())
    values = {
        "throughput_qps": n / phase.elapsed,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    print(f"workload {wl.name}  seed {args.seed}  size {args.size}  "
          f"{phase.rounds} rounds, {n} queries in {phase.elapsed:.3f} s")
    print(f"  throughput_qps  {values['throughput_qps']:.6g} 1/s  ({n} queries / {phase.elapsed:.3f} s)")
    print(f"  latency_p50_ms  {values['latency_p50_ms']:.6g} ms  (n={n})")
    print(f"  latency_tail_ms {values['latency_tail_ms']:.6g} ms  (p{tail_p}, n={n}, {beyond} beyond)")
    print(f"  failed_frac     {total_failed / n:.6g}  ({total_failed} of {n} queries)")
    print_failures(attempted, failed, reasons)
    print(f"  setup_s         {values['setup_s']:.6g} s  (median of n={len(setups)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"  peak_rss_mb     {values['peak_rss_mb']:.6g} MB  (n=1 process)")
    defect_probe(wl, sr, rounds)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    return {
        "correct": total_failed == 0,
        "attempted": n,
        "failed": total_failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


# ---------------------------------------------------------------------------
# traced run


def layer_value(name: str, layers: dict, counts: Counter, rounds: int) -> float:
    span, field = name.rsplit(".", 1)
    if field in ("calls", "self_s") and span in tracing.LAYERS:
        return layers.get(span, {}).get(field, 0) / rounds
    if name in ("poset.canonical.big_calls", "construct.verify_subrep.embeds_calls"):
        return counts[name] / rounds
    if name == "pinboard.disagreements":
        return counts[name]
    raise KeyError(f"no per-layer metric named {name!r}")


def traced(args, wl, sr, rounds) -> dict:
    """Blocks of whole rounds lasting at least a second, each run untraced
    and then traced, so both passes see the same inputs and the machine in
    the same state, until the untraced passes add up to half of
    ``--seconds``."""
    plain, phase = new_phase(), new_phase()
    tracer = tracing.Tracer()
    query = tracer.wrap(tracing.QUERY, wl.run)
    while plain.elapsed < args.seconds / 2:
        first = plain.rounds
        block = run_rounds(wl.run, sr, rounds, seconds=1.0, first=first, into=plain).rounds - first
        tracer.install()
        try:
            run_rounds(query, sr, rounds, count=block, first=first, into=phase)
        finally:
            tracer.uninstall()
    mismatched = {k for k, out in plain.outputs.items() if phase.outputs.get(k) != out}
    attempted, failed, reasons = tally(wl, sr, rounds, phase, mismatched)
    layers = tracer.summary()
    counts = tracer.counts
    overhead = phase.elapsed / plain.elapsed - 1
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    path = WORK / "traces" / f"{wl.name}-seed{args.seed}.csv.gz"
    spans = tracer.write(path)

    total_self = sum(v["self_s"] for v in layers.values()) or 1.0
    print(f"traced workload {wl.name}  seed {args.seed}  {phase.rounds} rounds, "
          f"{len(phase.latencies)} queries; untraced {plain.elapsed:.3f} s, traced "
          f"{phase.elapsed:.3f} s; {spans} spans in {path.relative_to(ROOT)}")
    print(f"  {'layer':<28}{'calls/round':>13}{'self s/round':>14}{'share':>8}{'raised':>8}")
    for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<28}{v['calls'] / phase.rounds:>13.6g}{v['self_s'] / phase.rounds:>14.6g}"
              f"{v['self_s'] / total_self:>8.1%}{v['raised']:>8}")
    lead = [n for n, _ in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
            if n != tracing.QUERY][:3]
    print(f"  leading layers by self time: {', '.join(lead)}")
    print(f"  mismatched outputs traced vs untraced: {len(mismatched)}")
    print_failures(attempted, failed, reasons)
    counts["pinboard.disagreements"] = defect_probe(wl, sr, rounds) or 0
    # Figures the inputs fix, so they have no better or worse direction.
    embeds_calls = layers.get("embed.embeds", {}).get("calls", 0)
    true_frac = counts["embed.embeds.true"] / embeds_calls if embeds_calls else 0.0
    print(f"  embed.embeds.true_frac {true_frac:.6g} frac  (informational)")
    print(f"  oracle.enumerate_posets.classes "
          f"{counts['oracle.enumerate_posets.classes'] / phase.rounds:.6g} count/round  (informational)")

    metrics = {}
    for m in spec()["per_layer"]:
        if m["name"] == "trace.overhead_frac":
            value = overhead
        else:
            value = layer_value(m["name"], layers, counts, phase.rounds)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:.6g} {m['unit']}")
    total_failed = sum(failed.values())
    return {
        "correct": total_failed == 0,
        "attempted": len(phase.latencies),
        "failed": total_failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# entry point


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--src", str(args.src)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for a quick smoke run")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the subrep package to measure")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.src = args.src.resolve()
    if not (args.src / "subrep" / "__init__.py").is_file():
        print(f"error: no subrep package under {args.src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    compileall.compile_dir(str(args.src / "subrep"), quiet=1)
    wl = WORKLOADS[args.workload]
    sr, rounds, setup_s = set_up(wl, args.seed, args.size, args.src)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        result = traced(args, wl, sr, rounds)
    else:
        result = end_to_end(args, wl, sr, rounds, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

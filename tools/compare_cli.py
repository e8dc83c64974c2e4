#!/usr/bin/env python3
"""Run one seeded corpus of CLI commands through two source trees and print
every difference in stdout, stderr or exit code.

    python3 tools/compare_cli.py --base-src ../parent/src --src src

Each tree's ``subrep.cli.main`` runs the whole corpus in one fresh
interpreter. The corpus: the three demos; ``survey 1`` to ``6`` with and
without ``--json``; ``classify`` and ``classify --dot`` on generated poset
files (unions of chains, flowers, co-flowers and random posets with 1 to 17
points, malformed files too), ``subrep`` on those up to 9 points,
``oracle`` up to 7 and ``embed`` between them; ``pinboard theta`` and
``pinboard embed`` on generated hosts and subsets, malformed ones included.
Exit status: 0 when the trees agree on every command, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1  # one fixed corpus, so reports of "N commands, 0 differences" compare

RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.argv[0] = "subrep"
from subrep import cli
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    out.append([stdout.getvalue(), stderr.getvalue(), code])
json.dump(out, sys.__stdout__)
"""


def _poset_text(rng: random.Random, n: int) -> tuple[str, bool]:
    """A poset file on n shuffled names, and whether it is a union of
    chains, a flower or a co-flower (so ``subrep`` builds a table)."""
    names = [f"{rng.choice('abxy')}{i}" for i in range(n)]
    rng.shuffle(names)
    style = rng.choice(["chains", "flower", "coflower", "random", "random"])
    covers: list[tuple[str, str]] = []
    if style == "chains" or n < 3:
        pos = 0
        while pos < n:
            k = rng.randint(1, n - pos)
            covers += zip(names[pos : pos + k], names[pos + 1 : pos + k])
            pos += k
    elif style == "random":
        covers = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3]
    else:
        stem = rng.randint(0, n - 3)
        covers = list(zip(names[: stem + 1], names[1 : stem + 1]))
        covers += [(names[stem], top) for top in names[stem + 1 :]]
        if style == "coflower":
            covers = [(b, a) for a, b in covers]
    lines = ["# generated", "elem " + " ".join(names)] + [f"{a} < {b}" for a, b in covers]
    return "\n".join(lines) + "\n", style != "random"


_MALFORMED = [
    "elem a b\na << b\n", "a < b\n", "elem a a\n", "elem a b\na < c\n",
    "elem a b\na < b\nb < a\n", "", "elem a\n# only a comment\n",
]


def _subset(rng: random.Random, word: str, k: int, n: int, m: int, g: int) -> str:
    """A subset of the host {(w_k, n), (m, aleph_g)}: mostly one that fits,
    sometimes one that does not, sometimes malformed text."""
    tall = [f"w{j}{tail}" for j in range(k) for tail in ("", f"+{rng.randint(1, 9)}", "*2")]
    tall += [str(rng.randint(m + 1, 60))] * 3
    pairs, room = [], n
    for height in rng.sample(tall, k=min(len(tall), rng.randint(0, 3))):
        if room or rng.random() < 0.1:
            freq = rng.randint(1, max(1, room))
            pairs.append(f"({height},{freq})")
            room = max(0, room - freq)
    shorts = [f"aleph{j}" for j in range(g + 1)] + ["1", "3"]
    pairs += [f"({h},{rng.choice(shorts)})" for h in rng.sample(range(1, m + 1), k=min(m, rng.randint(0, 3)))]
    if rng.random() < 0.1:  # does not fit: too tall, or too many tall columns
        pairs.append(rng.choice([f"(w{k + 1},1)", f"({m + 1},{n + 1})", f"({max(m, 1)},aleph{g + 1})"]))
    rng.shuffle(pairs)
    text = f"{word} " + " ".join(pairs or ["(1,1)"])
    if rng.random() < 0.15:  # malformed
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice(["", "x", "(", ")", ",", "w0*0", "+", " "]) + text[cut + 1 :]
    return text


def corpus(workdir: Path) -> list[list[str]]:
    rng = random.Random(SEED)
    commands = [["demo", name] for name in ("fig1", "fig3", "section2")]
    commands += [["survey", str(n), *flag] for n in range(1, 7) for flag in ([], ["--json"])]
    files = []
    for k, text in enumerate(_MALFORMED):
        path = workdir / f"bad{k}.poset"
        path.write_text(text, encoding="utf-8")
        commands += [["classify", str(path)], ["subrep", str(path)]]
    for k in range(180):
        n = rng.randint(1, 17)
        text, positive = _poset_text(rng, n)
        path = workdir / f"p{k}.poset"
        path.write_text(text, encoding="utf-8")
        commands += [["classify", str(path)], ["classify", "--dot", str(path)]]
        if n <= 9:
            commands.append(["subrep", str(path)])
        if n <= 7:
            commands.append(["oracle", str(path)])
        if n <= 10:
            files.append((n, path))
    for _ in range(120):
        (n1, f1), (n2, f2) = sorted(rng.sample(files, 2))
        commands.append(["embed", str(f1), str(f2)])
    for _ in range(300):
        k, n, m, g = rng.randint(0, 2), rng.randint(0, 12), rng.randint(0, 8), rng.randint(0, 3)
        word = "copin" if rng.random() < 0.3 else "pin"
        host = f"{word} (w{k},{n}) ({m},aleph{g})"
        if rng.random() < 0.1:
            host = host.replace("aleph", "")
        count = rng.choice([1, 1, 2, 2, 2, 2, 2, 2, 2, 3])
        subsets = [_subset(rng, word if rng.random() < 0.95 else "copin", k, n, m, g)
                   for _ in range(count)]
        commands.append(["pinboard", "theta" if count == 1 else "embed", host, *subsets])
    return commands


def run_tree(src: Path, commands: list[list[str]]) -> list[list]:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", RUNNER, str(src)],
        input=json.dumps(commands), stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-src", type=Path, required=True)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        commands = corpus(Path(tmp))
        base = run_tree(args.base_src.resolve(), commands)
        new = run_tree(args.src.resolve(), commands)
    differences = 0
    for argv_, old, got in zip(commands, base, new):
        for what, a, b in zip(("stdout", "stderr", "exit code"), old, got):
            if a != b:
                differences += 1
                print(f"{' '.join(argv_)}: {what} differs\n  base: {a!r}\n  src:  {b!r}")
    print(f"{len(commands)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: seeded input generators, the timed query of each,
and the check of each output against ``reference``.

The generators are this benchmark's own copies, so an edit to the test
suite cannot change what the benchmark runs. The library receives only the
generated inputs.

A workload's inputs form a pool of *rounds*. Every round has the same fixed
list of slots (family, size and which layer it is meant to load), and the
seed draws the instance in each slot: names, element order, stem lengths,
chain partitions, random components and pinboard pairs. Runs time whole
rounds, so two seeds time the same mix of slots and differ only in the
instances, which keeps the rare expensive queries from swinging the
figures. Every slot shape is chosen so that no query fails by design.

Slot mixes at ``size="full"`` and why:

* ``classify``: 248 queries a round, n 4..16. 234 light queries whose
  components have at most 5 or more than ``CANONICAL_MAX`` (10) elements:
  unions of short chains, small and large flowers and co-flowers, long
  chains, random connected 11..16-element posets and planted negatives
  (a flower-type component plus a point or a short chain, which contains
  vee+point or wedge+point). Then 6 queries with a 6-element and 4 with a
  7-element component, 3 with an 8-element and 1 with a 9-element
  flower-type component (flower, co-flower, or either with a planted extra
  component). About two fifths of the queries are negative. Canonical
  labelling of the 8- and 9-element components sets the throughput; parsing
  and JSON set the median.
* ``verify``: 100 positive posets a round: one 9-element and one 8-element
  flower or co-flower (alternating), a 7-element flower and a union of two
  chains, and 96 6-element ones cycling through every 6-element flower,
  co-flower and union of chains. The 9-element query takes three quarters
  of the time; the median and the tail (p90) fall among the 6-element
  ones. Per-subset canonical codes and the pair loop of ``verify_subrep``
  dominate.
* ``pinboard``: 99 queries a round, two finite ones to each symbolic one.
  Finite ones come from the finite-host generator of acceptance criterion 8
  with at most ``PIN_MAX_TOTAL`` elements per side; their brute-force
  ``embeds`` on negative instances is the heavy, heavy-tailed work.
  Symbolic ones mix infinite heights and frequencies on the host
  ``pin (w2,12) (7,aleph3)`` and decide embeddability with ``pin_embeds``.
  Every query parses its host and subsets from text, as ``subrep
  pinboard`` does. ``theta_subset`` runs on the finite queries only: on
  symbolic pairs it is wrong in about 0.4% of them (the ``normalize_subset``
  defect, ROADMAP item 1), so it is measured there by ``theta_defect``,
  outside the timed loop, and reported as a count beside the result.
* ``survey``: ``survey 5``, ``survey 4`` and 24 ``oracle`` queries on
  6-element posets (half from the positive families, half random) a round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import reference as ref

#: Finite pinboard instances have at most this many elements per side. At 18
#: or more, single negative brute-force searches take seconds (tens of
#: seconds at 22, the acceptance test's bound), which a run of a few tens of
#: seconds cannot average out. Over 25-s runs on a 2-CPU x86-64 container,
#: the interquartile range of the p99.9 latency was about 29% of its median
#: at 13 (five seeds) and up to 27% at 12 (two sets of ten seeds), above the
#: 25% bound. At 11, ``embeds`` takes about a quarter of the traced self
#: time, just behind the CLI's parsing of the pinboard texts.
PIN_MAX_TOTAL = 11

SYMBOLIC_HOST = "pin (w2,12) (7,aleph3)"


@dataclass(frozen=True, slots=True)
class Query:
    kind: str   # failure bucket, e.g. "classify.planted"
    text: str   # the input text handed to the library
    data: tuple  # the generator's description, for the check


def emit(payload: dict) -> str:
    """Payload emission as the CLI does it."""
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# poset shapes: (size, covers on 0..size-1)


def chain(k: int):
    return k, [(i, i + 1) for i in range(k - 1)]


def flower(stem: int, top: int):
    center = stem
    covers = [(i, i + 1) for i in range(stem)]
    covers += [(center, center + 1 + j) for j in range(top)]
    return stem + 1 + top, covers


def coflower(stem: int, top: int):
    n, covers = flower(stem, top)
    return n, [(b, a) for a, b in covers]


def flower_type(rng: random.Random, k: int, stem: int | None = None):
    """A k-element flower or co-flower, stem length drawn if not given."""
    stem = rng.randint(0, k - 3) if stem is None else stem
    return (flower if rng.random() < 0.5 else coflower)(stem, k - 1 - stem)


def random_connected(rng: random.Random, k: int, p_extra: float = 0.15):
    """A random order whose comparability graph is connected: a random
    tree on 0..k-1 directed upward plus extra upward edges."""
    covers = [(rng.randrange(j), j) for j in range(1, k)]
    covers += [(i, j) for i in range(k) for j in range(i + 1, k)
               if rng.random() < p_extra]
    return k, covers


def random_order(rng: random.Random, k: int, p_edge: float = 0.4):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)
               if rng.random() < p_edge]


def union(*shapes):
    n, covers = 0, []
    for k, cov in shapes:
        covers += [(a + n, b + n) for a, b in cov]
        n += k
    return n, covers


def chain_partition(rng: random.Random, n: int, most: int):
    parts = []
    while n:
        k = rng.randint(1, min(most, n))
        parts.append(k)
        n -= k
    return union(*(chain(k) for k in parts))


def poset_query(rng: random.Random, kind: str, shape) -> Query:
    """Random names, declaration order and line order for a shape."""
    n, covers = shape
    names = [f"v{k}" for k in rng.sample(range(10 * n + 10), n)]
    order = names[:]
    rng.shuffle(order)
    lines = [f"{names[a]} < {names[b]}" for a, b in covers]
    rng.shuffle(lines)
    text = "elem " + " ".join(order) + "\n" + "".join(x + "\n" for x in lines)
    return Query(kind, text, (tuple(names), tuple((names[a], names[b]) for a, b in covers)))


def interleave(light: list, heavy: list) -> list:
    """``light`` with the items of ``heavy`` inserted at even spacing."""
    out = list(light)
    step = (len(light) + len(heavy)) / max(1, len(heavy))
    for j, item in enumerate(heavy):
        out.insert(int(j * step), item)
    return out


# ---------------------------------------------------------------------------
# classify


def _classify_light(rng: random.Random, small: bool) -> Query:
    big = (4, 5) if small else (11, 16)
    r = rng.random()
    if r < 0.25:
        return poset_query(rng, "classify.positive", chain_partition(rng, rng.randint(4, 16), 5))
    if r < 0.35:
        return poset_query(rng, "classify.positive", flower_type(rng, rng.randint(4, 5)))
    if r < 0.45:
        return poset_query(rng, "classify.positive", flower_type(rng, rng.randint(*big)))
    if r < 0.55:
        k = rng.randint(*big)
        rest = rng.randint(0, 16 - k)
        shape = union(chain(k), chain_partition(rng, rest, 5)) if rest else chain(k)
        return poset_query(rng, "classify.positive", shape)
    if r < 0.75:
        return poset_query(rng, "classify.random", random_connected(rng, rng.randint(*big)))
    if r < 0.90:
        k = rng.choice((4, 5, rng.randint(big[0], min(big[1], 14))))
        extra = chain(rng.randint(1, min(2, 16 - k)))
        return poset_query(rng, "classify.planted", union(flower_type(rng, k), extra))
    k = rng.randint(3, 5)
    rest = chain_partition(rng, rng.randint(1, 16 - k), 5)
    return poset_query(rng, "classify.random", union(random_connected(rng, k, 0.3), rest))


def _classify_mid(rng: random.Random, k: int, slot: int) -> Query:
    """A k-element component of the family and stem the slot fixes."""
    stem = slot % (k - 2)
    family = slot % 4
    if family == 0:
        return poset_query(rng, "classify.positive", union(chain(k), chain(1 + slot % 3)))
    if family == 1:
        return poset_query(rng, "classify.positive", flower_type(rng, k, stem))
    if family == 2:
        return poset_query(rng, "classify.planted", union(flower_type(rng, k, stem), chain(1)))
    return poset_query(rng, "classify.random", random_connected(rng, k))


def _classify_big(rng: random.Random, k: int, variant: int) -> Query:
    """A k-element flower-type component with stem 2, so every variant
    costs the same to label: flower, co-flower, or either with a planted
    extra component that makes the poset negative."""
    top = k - 3
    shape = (flower, coflower)[variant % 2](2, top)
    if variant < 2:
        return poset_query(rng, "classify.positive", shape)
    return poset_query(rng, "classify.planted", union(shape, chain(variant - 1)))


def classify_rounds(rng: random.Random, size: str) -> list[list[Query]]:
    if size == "tiny":
        return [[_classify_light(rng, True) for _ in range(40)] for _ in range(2)]
    rounds = []
    for r in range(8):
        heavy = [_classify_big(rng, 9, r % 4)]
        heavy += [_classify_big(rng, 8, (3 * r + j) % 4) for j in range(3)]
        heavy += [_classify_mid(rng, 7, j) for j in range(4)]
        heavy += [_classify_mid(rng, 6, j) for j in range(6)]
        rounds.append(interleave([_classify_light(rng, False) for _ in range(234)], heavy))
    return rounds


def classify_run(sr, q: Query) -> str:
    p = sr.cli.parse_poset_text(q.text)
    return emit(sr.classify_finite(p).as_dict())


def classify_check(sr, q: Query, out: str) -> str | None:
    names, covers = q.data
    return ref.check_verdict(ref.close(names, covers), json.loads(out))


# ---------------------------------------------------------------------------
# verify


def _partitions(n: int, most: int | None = None):
    """Partitions of n into parts of at most ``most``, largest part first."""
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for k in range(min(n, most), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _positive_shapes(n: int) -> list:
    """Every n-element flower and co-flower, then every union of chains."""
    shapes = [kind(stem, n - 1 - stem) for stem in range(n - 2) for kind in (flower, coflower)]
    return shapes + [union(*(chain(k) for k in parts)) for parts in _partitions(n)]


def verify_rounds(rng: random.Random, size: str) -> list[list[Query]]:
    """Each round runs the same shapes; the seed draws names and element
    order, which move a query's cost by up to a third, so the rounds carry
    many 6-element queries for the median and the tail to average over."""
    if size == "tiny":
        shapes = [(n, shape) for n in (4, 5) for shape in _positive_shapes(n)]
        return [[poset_query(rng, f"verify.n{n}", shape) for n, shape in shapes]]
    six, seven = _positive_shapes(6), _positive_shapes(7)
    rounds = []
    for r in range(4):
        heavy = [poset_query(rng, "verify.n9", (flower, coflower)[r % 2](2, 6)),
                 poset_query(rng, "verify.n8", (coflower, flower)[r % 2](2, 5))]
        heavy += [poset_query(rng, "verify.n7", seven[j]) for j in (6, 12)]
        light = [poset_query(rng, "verify.n6", six[j % len(six)]) for j in range(96)]
        rounds.append(interleave(light, heavy))
    return rounds


def verify_run(sr, q: Query) -> str:
    p = sr.cli.parse_poset_text(q.text)
    g = sr.build_g(p)
    violations = sr.verify_subrep(p, g)
    return emit({
        "violations": [[v.condition, list(v.subset), v.other and list(v.other), v.detail]
                       for v in violations],
        "g": [[list(sub), list(img)] for sub, img in g.rows()],
    })


def verify_check(sr, q: Query, out: str) -> str | None:
    payload = json.loads(out)
    if payload["violations"]:
        return f"{len(payload['violations'])} violations"
    names, covers = q.data
    return ref.check_table(ref.close(names, covers), payload["g"])


# ---------------------------------------------------------------------------
# pinboard


def _finite_subset(rng: random.Random, n: int, m: int, beta_bound: int, max_total: int):
    """One subset draw of acceptance criterion 8's finite-host generator for
    a host with n tall columns and infinitely many of height m: tall heights
    up to ``beta_bound`` within the n tall columns, up to three columns of
    each short height. None when it has more than ``max_total`` elements."""
    pairs = []
    total = 0
    budget = rng.randint(0, n)
    tall = rng.sample(range(m + 1, beta_bound + 1), k=min(budget, beta_bound - m))
    used = 0
    for h in tall:
        f = rng.randint(1, max(1, budget - used))
        if used + f <= n:
            pairs.append((h, f))
            used += f
            total += h * f
    for h in range(1, m + 1):
        f = rng.randint(0, 3)
        if f:
            pairs.append((h, f))
            total += h * f
    return tuple(pairs) if total <= max_total else None


def _finite_pools(rng: random.Random, max_total: int, draws: int):
    """Every host shape (n, m, beta_bound) the generator can pick, with the
    subsets among ``draws`` draws that fit and the chance that the
    generator picks the shape and keeps the instance (both subsets fit).
    Sampling shape and subsets from these pools keeps the generator's
    distribution and is cheap enough for the numbers a timed run needs."""
    shapes = []
    for m in range(1, 4):
        for n in range(4):
            for beta in range(m + 1, 7):
                drawn = [_finite_subset(rng, n, m, beta, max_total) for _ in range(draws)]
                fit = [(y, _pin_text(y)) for y in drawn if y is not None]
                keep = (len(fit) / draws) ** 2 / (3 * 4 * (6 - m))
                shapes.append(((n, m), f"pin (w0,{n}) ({m},aleph0)", fit, keep))
    return shapes, list(accumulate(shape[3] for shape in shapes))


def _symbolic_subset(rng: random.Random) -> tuple[tuple[str, str], ...]:
    """Raw pairs mixing infinite heights and frequencies, in the style of
    the pinboard tests' symbolic generator, for ``SYMBOLIC_HOST``."""
    tall_pool = ["w2", f"w1+{rng.randint(1, 10)}", "w1", f"w0+{rng.randint(1, 9)}",
                 "w0", str(rng.randint(8, 60))]
    pairs = []
    budget = rng.randint(0, 4)
    for h in rng.sample(tall_pool, k=budget):
        pairs.append((h, str(rng.randint(1, 12 // max(1, budget)))))
    for h in rng.sample(range(1, 8), k=rng.randint(0, 3)):
        finite, infinite = str(rng.randint(1, 5)), f"aleph{rng.randint(0, 2)}"
        pairs.append((str(h), rng.choice([finite, infinite])))
    return tuple(pairs)


def _pin_text(pairs) -> str:
    return " ".join(["pin"] + [f"({h},{f})" for h, f in pairs])


def _pinboard_round(rng: random.Random, count: int, finite, symbolic: list) -> list[Query]:
    """Two finite queries, then one symbolic, until ``count``."""
    shapes, cum_weights = finite
    out = []
    while len(out) < count:
        if len(out) % 3 == 2:
            (y1, text1), (y2, text2) = rng.choice(symbolic), rng.choice(symbolic)
            text = "|".join((SYMBOLIC_HOST, text1, text2))
            out.append(Query("pinboard.symbolic", text, (y1, y2)))
            continue
        (n, m), host, fit, _ = rng.choices(shapes, cum_weights=cum_weights)[0]
        (y1, text1), (y2, text2) = rng.choice(fit), rng.choice(fit)
        out.append(Query("pinboard.finite", "|".join((host, text1, text2)), ((n, m), y1, y2)))
    return out


def pinboard_rounds(rng: random.Random, size: str) -> list[list[Query]]:
    """Symbolic queries are ordered pairs drawn from a pool of subsets, as
    in the pinboard tests."""
    tiny = size == "tiny"
    finite = _finite_pools(rng, 8 if tiny else PIN_MAX_TOTAL, 600)
    symbolic = [(y, _pin_text(y))
                for y in (_symbolic_subset(rng) for _ in range(20 if tiny else 400))]
    return [_pinboard_round(rng, 99, finite, symbolic) for _ in range(1 if tiny else 800)]


def _pin_subset(sr, text: str, host):
    """A subset parsed as ``subrep pinboard`` parses it; the CLI's syntax has
    no empty subset, so "pin" alone stands for one."""
    if text == "pin":
        return sr.normalize_subset([], host)
    return sr.cli.parse_pin_subset(text, host)


def _parse_query(sr, q: Query):
    host_text, text1, text2 = q.text.split("|")
    host = sr.cli.parse_simple_pinboard(host_text)
    return host, _pin_subset(sr, text1, host), _pin_subset(sr, text2, host)


def pinboard_run(sr, q: Query) -> str:
    """Finite queries: ``pin_embeds``, ``theta_subset`` and brute-force
    ``embeds``, as acceptance criterion 8 compares them. Symbolic queries:
    ``pin_embeds``."""
    host, y1, y2 = _parse_query(sr, q)
    payload = {"embeds": sr.pin_embeds(y1, y2)}
    if q.kind == "pinboard.finite":
        payload["thetaSubset"] = sr.theta_subset(sr.theta(host, y1), sr.theta(host, y2))
        payload["bruteForce"] = sr.embeds(sr.pinboard_poset(y1), sr.pinboard_poset(y2))
    return emit(payload)


def _pinboard_want(q: Query) -> bool:
    if q.kind == "pinboard.symbolic":
        return ref.pin_subsets_embed(*q.data)
    _, y1, y2 = q.data
    return ref.chains_embed([h for h, f in y1 for _ in range(f)],
                            [h for h, f in y2 for _ in range(f)])


def pinboard_check(sr, q: Query, out: str) -> str | None:
    payload = json.loads(out)
    want = _pinboard_want(q)
    if any(verdict != want for verdict in payload.values()):
        return f"verdicts {payload}, expected {want}"
    return None


def theta_defect(sr, rounds: list[list[Query]], count: int) -> tuple[int, int, list[str]]:
    """``theta_subset`` on the symbolic pairs of the first ``count`` rounds,
    against the reference: how many it gets wrong, of how many, and a few of
    them. A fix of the ``normalize_subset`` defect brings the count to 0."""
    wrong, pairs, examples = 0, 0, []
    for queries in rounds[:count]:
        for q in queries:
            if q.kind != "pinboard.symbolic":
                continue
            host, y1, y2 = _parse_query(sr, q)
            got = sr.theta_subset(sr.theta(host, y1), sr.theta(host, y2))
            pairs += 1
            if got != ref.pin_subsets_embed(*q.data):
                wrong += 1
                examples.append(q.text)
    return wrong, pairs, examples[:3]


# ---------------------------------------------------------------------------
# survey


def _oracle_query(rng: random.Random, n: int) -> Query:
    if rng.random() < 0.5:
        return poset_query(rng, "survey.oracle", rng.choice(_positive_shapes(n)))
    return poset_query(rng, "survey.oracle", random_order(rng, n))


def survey_rounds(rng: random.Random, size: str) -> list[list[Query]]:
    if size == "tiny":
        big, small, n, count = 4, 3, 5, 8
    else:
        big, small, n, count = 5, 4, 6, 24
    rounds = []
    for _ in range(2 if size == "tiny" else 24):
        oracles = [_oracle_query(rng, n) for _ in range(count)]
        tables = [Query("survey.table", str(k), (k,)) for k in (big, small)]
        rounds.append(interleave(oracles, tables))
    return rounds


def survey_run(sr, q: Query) -> str:
    if q.kind == "survey.table":
        n = int(q.text)
        rows = sr.survey(n)
        return emit({
            "n": n,
            "classes": len(rows),
            "subRepresentable": sum(r.verdict.sub_representable for r in rows),
            "notSubRepresentable": sum(not r.verdict.sub_representable for r in rows),
            "disagreements": sum(not r.agree for r in rows),
            "rows": [
                {"code": r.code.hex(), "kind": r.verdict.kind.value,
                 "classifier": r.verdict.sub_representable,
                 "oracle": r.oracle_positive, "agree": r.agree}
                for r in rows
            ],
        })
    p = sr.cli.parse_poset_text(q.text)
    g = sr.oracle_subrep(p)
    rows = None if g is None else [[list(sub), list(img)] for sub, img in g.rows()]
    return emit({"subRepresentable": g is not None, "g": rows})


def survey_check(sr, q: Query, out: str) -> str | None:
    payload = json.loads(out)
    if q.kind == "survey.table":
        n = q.data[0]
        want = (ref.POSET_COUNTS[n], ref.positive_classes(n), 0)
        got = (payload["classes"], payload["subRepresentable"], payload["disagreements"])
        if got != want or len({r["code"] for r in payload["rows"]}) != want[0]:
            return f"survey {n}: classes, positive, disagreements {got}, expected {want}"
        return None
    names, covers = q.data
    up = ref.close(names, covers)
    want = ref.verdict_kind(up) != "notSubRepresentable"
    library = sr.classify_finite(sr.cli.parse_poset_text(q.text)).sub_representable
    if payload["subRepresentable"] != want or library != want:
        return f"oracle {payload['subRepresentable']}, classifier {library}, expected {want}"
    return None if payload["g"] is None else ref.check_table(up, payload["g"])


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable   # (rng, size) -> list of rounds
    run: Callable      # (subrep, query) -> output text
    check: Callable    # (subrep, query, output) -> None or a failure reason


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify", classify_rounds, classify_run, classify_check),
        Workload("verify", verify_rounds, verify_run, verify_check),
        Workload("pinboard", pinboard_rounds, pinboard_run, pinboard_check),
        Workload("survey", survey_rounds, survey_run, survey_check),
    )
}

"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

import pytest

import subrep as sr


def fig1_poset() -> sr.Poset:
    """The worked four-point flower: 1 < 2, 2 < 3, 2 < 4."""
    return sr.poset_from_cover("1234", [("1", "2"), ("2", "3"), ("2", "4")])


def fig3_poset() -> sr.Poset:
    """The worked four-point refusal: 1 < 2 < 3 with 4 < 3."""
    return sr.poset_from_cover("1234", [("1", "2"), ("2", "3"), ("4", "3")])


def embeddings_exhaustive(p1: sr.Poset, p2: sr.Poset) -> Iterator[tuple[int, ...]]:
    """Independent embedding oracle: try every injection outright, and
    yield the image tuples that embed, in lexicographic order."""
    n1 = p1.n
    for image in itertools.permutations(range(p2.n), n1):
        if all(
            p1.less(i, j) == p2.less(image[i], image[j])
            for i in range(n1)
            for j in range(n1)
        ):
            yield image


def embeds_exhaustive(p1: sr.Poset, p2: sr.Poset) -> bool:
    return next(embeddings_exhaustive(p1, p2), None) is not None


def random_poset(rng: random.Random, n: int, p_edge: float = 0.4) -> sr.Poset:
    """Random poset via random upper-triangular covers plus closure."""
    names = [f"x{i}" for i in range(n)]
    covers = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    return sr.poset_from_cover(names, covers)


def random_positive_poset(rng: random.Random, n: int) -> sr.Poset:
    """Random sub-representable poset on n relabeled elements."""
    style = rng.choice(["flower", "coflower", "chains"]) if n >= 3 else "chains"
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)
    if style == "chains":
        covers = []
        pos = 0
        while pos < n:
            k = rng.randint(1, n - pos)
            seg = names[pos : pos + k]
            covers += list(zip(seg, seg[1:]))
            pos += k
        return sr.poset_from_cover(names, covers)
    stem_size = rng.randint(0, n - 3)
    stem, center, tops = names[:stem_size], names[stem_size], names[stem_size + 1 :]
    covers = list(zip(stem, stem[1:]))
    if stem:
        covers.append((stem[-1], center))
    covers += [(center, top) for top in tops]
    p = sr.poset_from_cover(names, covers)
    return sr.dual(p) if style == "coflower" else p


def relabel(p: sr.Poset, rng: random.Random) -> sr.Poset:
    """The same named order with its elements in a shuffled index order."""
    order = list(range(p.n))
    rng.shuffle(order)
    pos = {old: k for k, old in enumerate(order)}
    rows = tuple(
        sum(1 << pos[j] for j in range(p.n) if p.less(old, j)) for old in order
    )
    return sr.Poset(tuple(p.elements[old] for old in order), rows)


def near_miss(rng: random.Random, n: int) -> sr.Poset:
    """A flower, co-flower or union of chains with one point or one relation
    added: often, but not always, no longer sub-representable."""
    grow = rng.random() < 0.5
    base = random_positive_poset(rng, n - 1 if grow else n)
    names = base.elements
    pairs = [(i, a, j, b) for i, a in enumerate(names) for j, b in enumerate(names) if i != j]
    covers = [(a, b) for i, a, j, b in pairs if base.less(i, j)]
    if grow:
        up = rng.random() < 0.5
        ties = rng.sample(names, min(base.n, rng.randint(0, 2)))
        covers += [(t, "new") if up else ("new", t) for t in ties]
        names += ("new",)
    else:
        loose = [(a, b) for i, a, j, b in pairs if not (base.comparable_mask(i) >> j) & 1]
        if loose:
            covers.append(rng.choice(loose))
    return sr.poset_from_cover(names, covers)


def components_by_subposet(p: sr.Poset) -> list[sr.Poset]:
    """Reference components: a walk of the comparability graph from each
    unvisited element in index order, an induced subposet per component,
    then a stable sort by size, largest first."""
    seen = 0
    found = []
    for i in range(p.n):
        if (seen >> i) & 1:
            continue
        comp = frontier = 1 << i
        while frontier:
            j = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = p.comparable_mask(j) & ~comp
            comp |= grow
            frontier |= grow
        seen |= comp
        found.append(sr.subposet(p, comp))
    return sorted(found, key=lambda sub: -sub.n)


def classify_reference(p: sr.Poset) -> dict:
    """Reference for ``classify_finite(p).as_dict()`` built from derived
    posets: ``is_chain_poset`` on each component subposet, the flower test
    on p and then on ``dual(p)``, and the witness patterns searched in the
    classifier's priority order."""

    def verdict(kind: str, positive: bool, witness: dict | None) -> dict:
        return {"kind": kind, "subRepresentable": positive, "witness": witness}

    parts = components_by_subposet(p)
    if all(sr.is_chain_poset(c) for c in parts):
        return verdict("unionOfChains", True, {"chains": [list(c.elements) for c in parts]})
    center = sr.is_flower(p)
    if center is not None:
        return verdict("flower", True, {"center": center})
    center = sr.is_flower(sr.dual(p))
    if center is not None:
        return verdict("coFlower", True, {"center": center})

    def match(kind: sr.PatternKind) -> dict | None:
        image = sr.find_embedding(sr.pattern_poset(kind), p)
        return None if image is None else {"pattern": kind.value, "map": image}

    K = sr.PatternKind
    found = [match(K.DIAMOND)]
    if found[0] is None:
        found = [match(K.VEE), match(K.WEDGE)]
    if None in found:
        found = [next(filter(None, map(match, sr.obstruction_patterns())), None)]
    witness = None if None in found else {"patterns": found}
    return verdict("notSubRepresentable", False, witness)


def max_antichain_exhaustive(p: sr.Poset) -> int:
    """Reference width: the exact maximum antichain size by branch and
    bound over the elements, exponential in the worst case."""
    best = 0

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best = max(best, size)
            return
        v = (avail & -avail).bit_length() - 1
        rec(avail & ~(1 << v) & ~p.comparable_mask(v), size + 1)
        rec(avail & ~(1 << v), size)

    rec((1 << p.n) - 1, 0)
    return best


def enumerate_by_relations(n: int) -> list[bytes]:
    """Reference enumeration: the sorted canonical codes of every
    transitively closed relation compatible with the index order. Every
    poset has a linear extension, so this scan reaches every class."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    names = tuple(f"x{i}" for i in range(n))
    codes = set()
    for relation in range(1 << len(cells)):
        rows = [0] * n
        for idx, (i, j) in enumerate(cells):
            if (relation >> idx) & 1:
                rows[i] |= 1 << j
        if any(
            rows[j] & ~rows[i] for i in range(n) for j in range(n) if (rows[i] >> j) & 1
        ):
            continue  # not transitively closed
        codes.add(sr.canonical_code(sr.Poset(names, tuple(rows))))
    return sorted(codes)


@pytest.fixture(scope="session")
def classes_by_n() -> dict[int, list[sr.Poset]]:
    return {n: sr.enumerate_posets(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def oracle_verdicts(classes_by_n) -> dict[bytes, bool]:
    """Exhaustive-oracle verdict per isomorphism class, n <= 5."""
    out: dict[bytes, bool] = {}
    for n, classes in classes_by_n.items():
        for p in classes:
            out[sr.canonical_code(p)] = sr.oracle_subrep(p) is not None
    return out

"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
import re
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


def criterion8_instance(rng: random.Random):
    """A finite host of acceptance criterion 8 with two raw subsets of it,
    each None when it has more than 22 elements."""
    m = rng.randint(1, 3)
    n = rng.randint(0, 3)
    host = sr.SimplePinboard(sr.Card.aleph(0), n, m, sr.Card.aleph(0))
    beta_bound = rng.randint(m + 1, 6)

    def subset():
        pairs = []
        total = 0
        budget = rng.randint(0, n)
        tall = rng.sample(range(m + 1, beta_bound + 1), k=min(budget, beta_bound - m))
        used = 0
        for h in tall:
            f = rng.randint(1, max(1, budget - used))
            if used + f <= n:
                pairs.append((sr.fin(h), sr.Card.fin(f)))
                used += f
                total += h * f
        for h in range(1, m + 1):
            f = rng.randint(0, 3)
            if f:
                pairs.append((sr.fin(h), sr.Card.fin(f)))
                total += h * f
        return pairs if total <= 22 else None

    return host, subset(), subset()


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


# ---------------------------------------------------------------------------
# references for the pinboard path: the per-height rescans, the chain poset
# built from covers and closed, and the pair parser with its own regexes


def _cumulative_card_rescan(pairs, height):
    total = sr.Card.fin(0)
    for h, f in pairs:
        if sr.ord_cmp(h, height) >= 0:
            total = sr.card_sum(total, f)
    return total


def pin_embeds_rescan(y, y2) -> bool:
    """``pin_embeds`` recounting both subsets from the top at every height."""
    if y.host != y2.host:
        raise sr.HostMismatch("subsets belong to different hosts")
    return all(
        sr.card_cmp(_cumulative_card_rescan(y.pairs, h), _cumulative_card_rescan(y2.pairs, h)) <= 0
        for h, _ in y.pairs
    )


def _cumulative_ordinal_rescan(segs, height):
    total = sr.ZERO
    for count, h in segs.runs:
        if sr.ord_cmp(h, height) < 0:
            break
        total = sr.ord_sum(total, sr.initial_ordinal(count))
    return total


def theta_subset_rescan(a, b) -> bool:
    """``theta_subset`` re-adding both tables' blocks at every height."""
    if a.host != b.host:
        raise sr.HostMismatch("segment tables belong to different hosts")
    return all(
        sr.ord_cmp(_cumulative_ordinal_rescan(a, h), _cumulative_ordinal_rescan(b, h)) <= 0
        for _, h in a.runs
    )


def pinboard_poset_by_covers(pb) -> sr.Poset:
    """``pinboard_poset`` from the cover list of each chain, then closed."""
    for height, freq in pb.pairs:
        if not height.is_finite or freq.is_infinite:
            raise sr.InfinitePinboard(
                f"cannot expand ({height},{freq}); both entries must be finite"
            )
    names: list[str] = []
    covers: list[tuple[str, str]] = []
    for i, (height, freq) in enumerate(pb.pairs):
        for j in range(freq.value):
            levels = [f"c{i}_{j}_{level}" for level in range(height.as_finite())]
            names.extend(levels)
            covers.extend(zip(levels, levels[1:]))
    return sr.poset_from_cover(names, covers)


_REF_ORDINAL_RE = re.compile(r"w(\d+)(?:\*(\d+))?|(\d+)")
_REF_CARDINAL_RE = re.compile(r"aleph(\d+)|(\d+)")
_REF_BOARD_RE = re.compile(r"(pin|copin)\b")
_REF_PAIR_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def parse_ordinal_reference(text: str) -> sr.OrdinalExpr:
    """``cli.parse_ordinal`` summing every term onto ``ZERO``."""
    total = sr.ZERO
    for token in text.strip().split("+"):
        token = token.strip()
        m = _REF_ORDINAL_RE.fullmatch(token)
        if not m:
            raise sr.ParseError(f"bad ordinal token {token!r}")
        try:
            term = sr.fin(int(m[3])) if m[3] else sr.omega(int(m[1]), int(m[2] or 1))
        except ValueError as exc:
            raise sr.ParseError(f"bad ordinal token {token!r}: {exc}") from None
        total = sr.ord_sum(total, term)
    return total


def parse_cardinal_reference(text: str) -> sr.Card:
    text = text.strip()
    m = _REF_CARDINAL_RE.fullmatch(text)
    if not m:
        raise sr.ParseError(f"bad cardinal token {text!r}")
    try:
        return sr.Card.fin(int(m[2])) if m[2] else sr.Card.aleph(int(m[1]))
    except ValueError as exc:
        raise sr.ParseError(f"bad cardinal token {text!r}: {exc}") from None


def parse_pair_list_reference(text: str):
    """``cli.parse_pair_list`` finding each pair anywhere after the last one
    and then checking that only whitespace came between."""
    text = text.strip()
    m = _REF_BOARD_RE.match(text)
    if not m:
        raise sr.ParseError("pinboard text must start with 'pin' or 'copin'")
    starred = m.group(1) == "copin"
    body = text[m.end():].strip()
    pairs = []
    consumed = 0
    for pm in _REF_PAIR_RE.finditer(body):
        if body[consumed : pm.start()].strip():
            raise sr.ParseError("pinboard pairs must look like (height,freq)")
        pairs.append((parse_ordinal_reference(pm.group(1)), parse_cardinal_reference(pm.group(2))))
        consumed = pm.end()
    if body[consumed:].strip() or not pairs:
        raise sr.ParseError("pinboard pairs must look like (height,freq)")
    return pairs, starred

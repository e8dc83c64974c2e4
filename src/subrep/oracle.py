"""First-principles decision of sub-representability by exhaustive search.

The oracle never consults the structural classifier; it searches directly
for a witnessing table. Two facts force the shape of any witness on a
finite poset: mutually embeddable finite posets of equal size are
isomorphic, so every subset's representative realizes the same isomorphism
class; and isomorphic subsets share one representative. The search space
is therefore one representative mask per isomorphism class of subsets,
constrained pairwise by embeddability-iff-inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Verdict, classify_finite
from .construct import SubRepMap, subset_classes
from .errors import EmptyPoset, TooLarge
from .poset import CANONICAL_MAX, Poset, bit_indices, canonical_code

#: Enumeration labels every candidate; 7 points take about a minute.
ENUMERATE_MAX = 6


def oracle_subrep(p: Poset) -> SubRepMap | None:
    """A witnessing map found by exhaustive search, or None after
    exhausting every candidate.

    Raises TooLarge above ``CANONICAL_MAX`` elements: the search labels
    every subset canonically, as ``verify_subrep`` does.
    """
    if p.n > CANONICAL_MAX:
        raise TooLarge(f"oracle is limited to {CANONICAL_MAX} elements, got {p.n}")
    classes, _, can_embed = subset_classes(p)
    k = len(classes)
    chosen: list[int] = []

    def consistent(mask: int) -> bool:
        i = len(chosen)
        for j, other in enumerate(chosen):
            if can_embed[i][j] != (mask & ~other == 0):
                return False
            if can_embed[j][i] != (other & ~mask == 0):
                return False
        return True

    def backtrack() -> bool:
        if len(chosen) == k:
            return True
        for mask in classes[len(chosen)]:
            if consistent(mask):
                chosen.append(mask)
                if backtrack():
                    return True
                chosen.pop()
        return False

    try:
        found = backtrack()
    finally:
        backtrack = None  # backtrack refers to itself through this cell: free it without gc
    if not found:
        return None
    table = {mask: rep for rep, group in zip(chosen, classes) for mask in group}
    return SubRepMap(p, table)


def enumerate_posets(n: int) -> list[Poset]:
    """All posets on n elements up to isomorphism, one representative per
    class, ordered by canonical code. Representatives are named x0 ... x{n-1}
    and naturally labeled: x_i < x_j only if i < j."""
    return [p for _, p in _enumerate_classes(n)]


def _enumerate_classes(n: int) -> list[tuple[bytes, Poset]]:
    """``enumerate_posets(n)`` with each representative's canonical code."""
    if n < 1:
        raise EmptyPoset(f"enumeration needs at least one element, got {n}")
    if n > ENUMERATE_MAX:
        raise TooLarge(f"enumeration is limited to {ENUMERATE_MAX} elements, got {n}")
    point = Poset(("x0",), (0,))
    level = [(canonical_code(point), point)]
    for k in range(1, n):
        names = tuple(f"x{i}" for i in range(k + 1))
        seen: dict[bytes, Poset] = {}
        # Removing a maximal element leaves a poset on k points, so putting a
        # new maximal x_k above each down-closed set of each class reaches
        # every class on k + 1 points.
        for _, q in level:
            for down in range(1 << k):
                if any(q.gt[i] & ~down for i in bit_indices(down)):
                    continue
                rows = [row | (1 << k) if (down >> i) & 1 else row
                        for i, row in enumerate(q.lt)]
                p = Poset(names, (*rows, 0))
                seen.setdefault(canonical_code(p), p)
        level = sorted(seen.items())
    return level


@dataclass(frozen=True)
class SurveyRow:
    code: bytes
    poset: Poset
    verdict: Verdict
    oracle_positive: bool

    @property
    def agree(self) -> bool:
        return self.verdict.sub_representable == self.oracle_positive


def survey(n: int) -> list[SurveyRow]:
    """Classifier verdict and oracle verdict for every isomorphism class
    on n elements; any disagreement is visible on the row."""
    rows = []
    for code, p in _enumerate_classes(n):
        verdict = classify_finite(p)
        witness = oracle_subrep(p)
        rows.append(SurveyRow(code, p, verdict, witness is not None))
    return rows

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

import os
from dataclasses import dataclass

from .classify import Verdict, classify_finite
from .construct import SubRepMap, subset_classes
from .errors import EmptyPoset, SubrepError, TooLarge
from .poset import Poset, bit_indices, canonical_code

ORACLE_MAX_DEFAULT = 6
ENUMERATE_MAX = 5


def oracle_subrep(p: Poset, max_n: int | None = None) -> SubRepMap | None:
    """A witnessing map found by exhaustive search, or None after
    exhausting every candidate.

    ``max_n`` defaults to the SUBREP_MAX_N environment variable, else 6.
    """
    limit = max_n
    if limit is None:
        raw = os.environ.get("SUBREP_MAX_N", str(ORACLE_MAX_DEFAULT))
        try:
            limit = int(raw)
        except ValueError:
            raise SubrepError(f"SUBREP_MAX_N must be an integer, not {raw!r}") from None
    if p.n > limit:
        raise TooLarge(f"oracle is limited to {limit} elements, got {p.n}")
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

    if not backtrack():
        return None
    table = {mask: rep for rep, group in zip(chosen, classes) for mask in group}
    return SubRepMap(p, table)


def enumerate_posets(n: int) -> list[Poset]:
    """All posets on n elements up to isomorphism, one representative per
    class, ordered by canonical code. Representatives are named x0 ... x{n-1}
    and naturally labeled: x_i < x_j only if i < j."""
    if n < 1:
        raise EmptyPoset(f"enumeration needs at least one element, got {n}")
    if n > ENUMERATE_MAX:
        raise TooLarge(f"enumeration is limited to {ENUMERATE_MAX} elements, got {n}")
    level = [Poset(("x0",), (0,))]
    for k in range(1, n):
        names = tuple(f"x{i}" for i in range(k + 1))
        seen: dict[bytes, Poset] = {}
        # Removing a maximal element leaves a poset on k points, so putting a
        # new maximal x_k above each down-closed set of each class reaches
        # every class on k + 1 points.
        for q in level:
            for down in range(1 << k):
                if any(q.below_mask(i) & ~down for i in bit_indices(down)):
                    continue
                rows = [row | (1 << k) if (down >> i) & 1 else row
                        for i, row in enumerate(q.lt)]
                p = Poset(names, (*rows, 0))
                seen.setdefault(canonical_code(p), p)
        level = [seen[code] for code in sorted(seen)]
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
    for p in enumerate_posets(n):
        verdict = classify_finite(p)
        witness = oracle_subrep(p, max_n=ORACLE_MAX_DEFAULT)
        rows.append(SurveyRow(canonical_code(p), p, verdict, witness is not None))
    return rows

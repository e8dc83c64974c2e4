"""Construction and verification of witnessing maps.

A witnessing map g sends every nonempty subset of a poset to a
representative subset so that embeddability between subsets coincides with
inclusion between representatives, and each subset is mutually embeddable
with its representative. ``build_g`` realizes the explicit constructions
for flowers, co-flowers and disjoint unions of chains; ``verify_subrep``
checks any candidate table against the definition, exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .classify import VerdictKind, classify_finite
from .embed import embeds
from .errors import NotSubRepresentable, PartialMap, TooLarge
from .poset import (
    CANONICAL_MAX,
    Poset,
    bit_indices,
    canonical_code,
    dual,
    names_of,
    subposet,
)

#: Exhaustive verification walks all pairs of subsets; cap the exponent.
VERIFY_MAX = 14


@dataclass(frozen=True)
class SubRepMap:
    """Table from subset masks to representative subset masks of ``parent``,
    defined on every nonempty subset."""

    parent: Poset
    table: Mapping[int, int]

    def image_names(self, mask: int) -> tuple[str, ...]:
        return names_of(self.parent, self.table[mask])

    def rows(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        """Two-column table (subset names, representative names) ordered
        by subset mask."""
        return [
            (names_of(self.parent, mask), names_of(self.parent, self.table[mask]))
            for mask in sorted(self.table)
        ]


@dataclass(frozen=True)
class Violation:
    """One failed instance of the defining conditions."""

    condition: str  # 'embeds-vs-inclusion' or 'equivalence'
    subset: tuple[str, ...]
    other: tuple[str, ...] | None
    detail: str


def build_g(p: Poset) -> SubRepMap:
    """Witnessing map for a sub-representable finite poset.

    Raises NotSubRepresentable when the classifier refuses p.
    """
    verdict = classify_finite(p)
    if not verdict.sub_representable:
        raise NotSubRepresentable("no witnessing map exists for this poset")
    if verdict.kind == VerdictKind.UNION_OF_CHAINS:
        table = _chain_union_table(p, verdict.witness.chains)
    elif verdict.kind == VerdictKind.FLOWER:
        table = _flower_table(p, p.index(verdict.witness.center))
    else:
        q = dual(p)
        table = _flower_table(q, q.index(verdict.witness.center))
    return SubRepMap(p, table)


def _flower_table(p: Poset, center: int) -> dict[int, int]:
    """Images inside a flower with the fixed labeling: the top antichain
    x_1..x_k by element index, then the center, then the stem downward."""
    top = bit_indices(p.above_mask(center))
    stem = sorted(bit_indices(p.below_mask(center)), key=lambda i: -p.below_mask(i).bit_count())
    spine = [center] + stem  # positions k+1, k+2, ... of the labeling
    table: dict[int, int] = {}
    for mask in range(1, 1 << p.n):
        r = sum(1 for i in top if (mask >> i) & 1)
        chain_part = sum(1 for i in spine if (mask >> i) & 1)
        if r >= 2 and chain_part >= 1:  # sub-flower of height m, width r
            m = chain_part + 1
            image = _mask_from(spine[: m - 1]) | _mask_from(top[:r])
        elif r >= 2:
            image = _mask_from(top[:r])  # antichain of size r
        else:
            m = chain_part + r
            if m == 1:
                image = 1 << top[0]
            else:
                image = (1 << top[0]) | _mask_from(spine[: m - 1])
        table[mask] = image
    return table


def _chain_union_table(
    p: Poset, chains: tuple[tuple[str, ...], ...]
) -> dict[int, int]:
    """Images inside a disjoint union of chains: the subset's traces,
    largest first, land on the bottoms of the chains in the fixed
    descending order (the classifier's witness order)."""
    chain_masks = []
    chain_bottoms_up = []
    for c in chains:
        idx = sorted((p.index(name) for name in c),
                     key=lambda i: p.below_mask(i).bit_count())
        chain_masks.append(_mask_from(idx))
        chain_bottoms_up.append(idx)
    table: dict[int, int] = {}
    for mask in range(1, 1 << p.n):
        sizes = sorted(
            ((mask & cm).bit_count() for cm in chain_masks), reverse=True
        )
        image = 0
        for slot, size in enumerate(sizes):
            if size == 0:
                break
            image |= _mask_from(chain_bottoms_up[slot][:size])
        table[mask] = image
    return table


def verify_subrep(p: Poset, g: SubRepMap) -> list[Violation]:
    """All violations of the two defining conditions, checked over every
    ordered pair of nonempty subsets. Empty list means g witnesses
    sub-representability."""
    if p.n > VERIFY_MAX:
        raise TooLarge(f"verification is limited to {VERIFY_MAX} elements")
    masks = list(range(1, 1 << p.n))
    missing = [m for m in masks if m not in g.table]
    if missing:
        raise PartialMap(f"map undefined on {len(missing)} nonempty subsets")

    codes: dict[int, bytes | None] = {}
    subs: dict[int, Poset] = {}
    for m in masks:
        sub = subposet(p, m)
        subs[m] = sub
        codes[m] = canonical_code(sub) if sub.n <= CANONICAL_MAX else None

    pair_cache: dict[tuple[bytes, bytes], bool] = {}

    def emb(a: int, b: int) -> bool:
        ca, cb = codes[a], codes[b]
        if ca is None or cb is None:
            return embeds(subs[a], subs[b])
        key = (ca, cb)
        if key not in pair_cache:
            pair_cache[key] = embeds(subs[a], subs[b])
        return pair_cache[key]

    out: list[Violation] = []
    for s in masks:
        image = g.table[s]
        if not emb(s, image):
            out.append(
                Violation(
                    "equivalence",
                    names_of(p, s),
                    names_of(p, image),
                    "subset does not embed into its representative",
                )
            )
        elif not emb(image, s):
            out.append(
                Violation(
                    "equivalence",
                    names_of(p, s),
                    names_of(p, image),
                    "representative does not embed back into the subset",
                )
            )
    for s1 in masks:
        img1 = g.table[s1]
        for s2 in masks:
            included = img1 & ~g.table[s2] == 0
            if emb(s1, s2) != included:
                out.append(
                    Violation(
                        "embeds-vs-inclusion",
                        names_of(p, s1),
                        names_of(p, s2),
                        "embeds but representatives are not nested"
                        if not included
                        else "representatives nested without an embedding",
                    )
                )
    return out


def _mask_from(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m

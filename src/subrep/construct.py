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
from itertools import accumulate
from operator import or_
from typing import Mapping

from .classify import VerdictKind, classify_finite
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

#: A witnessing table has one entry per nonempty subset; cap its size.
TABLE_MAX = 16


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

    Raises NotSubRepresentable when the classifier refuses p, and TooLarge
    above ``TABLE_MAX`` elements.
    """
    if p.n > TABLE_MAX:
        raise TooLarge(f"witnessing tables are limited to {TABLE_MAX} elements, got {p.n}")
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
    top = bit_indices(p.lt[center])
    stem = sorted(bit_indices(p.gt[center]), key=lambda i: -p.gt[i].bit_count())
    spine = [center] + stem  # positions k+1, k+2, ... of the labeling
    top_prefix = _prefix_masks(top)
    spine_prefix = _prefix_masks(spine)
    table: dict[int, int] = {}
    for mask in range(1, 1 << p.n):
        r = sum(1 for i in top if (mask >> i) & 1)
        chain_part = sum(1 for i in spine if (mask >> i) & 1)
        if r >= 2:  # sub-flower of width r and stem chain_part (an antichain if 0)
            table[mask] = spine_prefix[chain_part] | top_prefix[r]
        else:  # chain of chain_part + r points: x_1 over the top of the spine
            table[mask] = top_prefix[1] | spine_prefix[chain_part + r - 1]
    return table


def _chain_union_table(
    p: Poset, chains: tuple[tuple[str, ...], ...]
) -> dict[int, int]:
    """Images inside a disjoint union of chains: the subset's traces,
    largest first, land on the bottoms of the chains in the fixed
    descending order (the classifier's witness order)."""
    prefixes = []  # per chain, masks of its bottom k elements
    for c in chains:
        idx = sorted((p.index(name) for name in c),
                     key=lambda i: p.gt[i].bit_count())
        prefixes.append(_prefix_masks(idx))
    table: dict[int, int] = {}
    for mask in range(1, 1 << p.n):
        sizes = sorted(
            ((mask & pre[-1]).bit_count() for pre in prefixes), reverse=True
        )
        image = 0
        for slot, size in enumerate(sizes):
            if size == 0:
                break
            image |= prefixes[slot][size]
        table[mask] = image
    return table


def _prefix_masks(indices: list[int]) -> list[int]:
    """Entry k is the mask of ``indices[:k]``."""
    return list(accumulate((1 << i for i in indices), or_, initial=0))


def subset_classes(p: Poset) -> tuple[list[list[int]], list[int], list[list[bool]]]:
    """The nonempty subsets of p grouped into isomorphism classes, the class
    of every subset, and embeddability between the classes.

    Each class is an ascending list of subset masks; classes are ordered by
    subset size, then by canonical code. ``cls[mask]`` is the index of the
    class holding ``mask`` (``cls[0]`` is unused). ``can_embed[i][j]`` tells
    whether the subsets of class i embed into those of class j, which holds
    exactly when some subset of class j's first mask lies in class i.
    """
    by_code: dict[bytes, list[int]] = {}
    for mask in range(1, 1 << p.n):
        by_code.setdefault(canonical_code(subposet(p, mask)), []).append(mask)
    codes = sorted(by_code, key=lambda c: (by_code[c][0].bit_count(), c))
    classes = [by_code[c] for c in codes]
    cls = [-1] * (1 << p.n)
    for i, group in enumerate(classes):
        for mask in group:
            cls[mask] = i
    can_embed = [[False] * len(classes) for _ in classes]
    for j, group in enumerate(classes):
        rep = sub = group[0]
        while sub:
            can_embed[cls[sub]][j] = True
            sub = (sub - 1) & rep
    return classes, cls, can_embed


def verify_subrep(p: Poset, g: SubRepMap) -> list[Violation]:
    """All violations of the two defining conditions, checked over every
    ordered pair of nonempty subsets. Empty list means g witnesses
    sub-representability. Subsets are compared by isomorphism class, so
    the size limit is canonical labelling's, ``CANONICAL_MAX``.
    """
    if p.n > CANONICAL_MAX:
        raise TooLarge(f"verification is limited to {CANONICAL_MAX} elements, got {p.n}")
    masks = range(1, 1 << p.n)
    missing = [m for m in masks if m not in g.table]
    if missing:
        raise PartialMap(f"map undefined on {len(missing)} nonempty subsets")
    stray = [m for m in masks if not 0 < g.table[m] < 1 << p.n]
    if stray:
        raise PartialMap(f"map sends {len(stray)} subsets outside the nonempty subsets")
    _, cls, can_embed = subset_classes(p)
    table = g.table

    out: list[Violation] = []
    for s in masks:
        image = table[s]
        if not can_embed[cls[s]][cls[image]]:
            out.append(
                Violation(
                    "equivalence",
                    names_of(p, s),
                    names_of(p, image),
                    "subset does not embed into its representative",
                )
            )
        elif not can_embed[cls[image]][cls[s]]:
            out.append(
                Violation(
                    "equivalence",
                    names_of(p, s),
                    names_of(p, image),
                    "representative does not embed back into the subset",
                )
            )
    for s1 in masks:
        img1 = table[s1]
        row = can_embed[cls[s1]]
        for s2 in masks:
            included = img1 & ~table[s2] == 0
            if row[cls[s2]] != included:
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

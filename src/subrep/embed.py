"""Order-embedding search and detection of the named small patterns.

``embeds(p1, p2)`` asks whether p1 is isomorphic to a subset of p2 with the
induced order, i.e. whether an injection exists that preserves and reflects
the strict relation. The search is a backtracking scan over injections with
pruning that never changes the answer: degree and chain-height dominance
bound each source's targets up front, and forward checking narrows the
targets of every later source after each assignment and abandons a branch as
soon as one of them runs out.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

from .poset import Poset, bit_indices, chain_heights, poset_from_cover


class PatternKind(Enum):
    """The fixed small shapes used by the classification arguments."""

    VEE = "vee"
    WEDGE = "wedge"
    DIAMOND = "diamond"
    TWO_CHAIN_PLUS_POINT = "two_chain_plus_point"
    VEE_PLUS_POINT = "vee_plus_point"
    WEDGE_PLUS_POINT = "wedge_plus_point"
    LONG_ARM_VEE = "long_arm_vee"
    LONG_ARM_WEDGE = "long_arm_wedge"
    CROWN = "crown"
    FENCE = "fence"


_PATTERN_COVERS: dict[PatternKind, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {
    PatternKind.VEE: (("a", "b", "c"), (("a", "b"), ("a", "c"))),
    PatternKind.WEDGE: (("a", "b", "c"), (("a", "c"), ("b", "c"))),
    PatternKind.DIAMOND: (
        ("a", "b", "c", "d"),
        (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")),
    ),
    PatternKind.TWO_CHAIN_PLUS_POINT: (("a", "b", "c"), (("a", "b"),)),
    PatternKind.VEE_PLUS_POINT: (
        ("a", "b", "c", "d"),
        (("a", "b"), ("a", "c")),
    ),
    PatternKind.WEDGE_PLUS_POINT: (
        ("a", "b", "c", "d"),
        (("a", "c"), ("b", "c")),
    ),
    PatternKind.LONG_ARM_VEE: (
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "c"), ("a", "d")),
    ),
    PatternKind.LONG_ARM_WEDGE: (
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "c"), ("d", "c")),
    ),
    PatternKind.CROWN: (
        ("a", "b", "c", "d"),
        (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")),
    ),
    PatternKind.FENCE: (
        ("a", "b", "c", "d"),
        (("a", "c"), ("b", "c"), ("b", "d")),
    ),
}


@cache
def pattern_poset(kind: PatternKind) -> Poset:
    names, covers = _PATTERN_COVERS[kind]
    return poset_from_cover(names, covers)


def obstruction_patterns() -> tuple[PatternKind, ...]:
    """The seven four-point shapes that block sub-representability, in the
    order of their canonical codes, pinned so that negative witnesses keep
    their bytes whatever labeller computes the codes."""
    return (
        PatternKind.VEE_PLUS_POINT,
        PatternKind.WEDGE_PLUS_POINT,
        PatternKind.FENCE,
        PatternKind.LONG_ARM_VEE,
        PatternKind.CROWN,
        PatternKind.LONG_ARM_WEDGE,
        PatternKind.DIAMOND,
    )


def _element_stats(p: Poset) -> list[tuple[int, int, int, int]]:
    up_chain = chain_heights(p.lt)
    down_chain = chain_heights(p._gt)
    return [
        (p.lt[i].bit_count(), p._gt[i].bit_count(), up_chain[i], down_chain[i])
        for i in range(p.n)
    ]


def _candidate_masks(p1: Poset, p2: Poset) -> list[int] | None:
    s1 = _element_stats(p1)
    s2 = _element_stats(p2)
    cand = []
    for a in s1:
        mask = 0
        for t, b in enumerate(s2):
            if b[0] >= a[0] and b[1] >= a[1] and b[2] >= a[2] and b[3] >= a[3]:
                mask |= 1 << t
        if mask == 0:
            return None
        cand.append(mask)
    return cand


def _search(p1: Poset, p2: Poset, limit: int | None = 1) -> list[tuple[int, ...]]:
    n1 = p1.n
    if n1 > p2.n:
        return []
    if n1 == 0:
        return [()]
    cand = _candidate_masks(p1, p2)
    if cand is None:
        return []
    # rel[s][k] says how source s + 1 + k must sit against the image of s:
    # 0 above it, 1 below it, 2 incomparable to it.
    rel = [[0 if p1.less(s, s2) else 1 if p1.less(s2, s) else 2
            for s2 in range(s + 1, n1)] for s in range(n1)]
    lt2, gt2 = p2.lt, p2._gt
    full = (1 << p2.n) - 1
    image = [-1] * n1
    found: list[tuple[int, ...]] = []

    def rec(s: int, doms: list[int]) -> bool:
        # doms holds the domains of sources s .. n1 - 1, already narrowed by
        # every assignment made so far, so each target in doms[0] is
        # consistent with them and distinct from their images.
        if s == n1:
            found.append(tuple(image))
            return limit is not None and len(found) >= limit
        later, kinds = doms[1:], rel[s]
        for t in bit_indices(doms[0]):
            masks = (lt2[t], gt2[t], full & ~(lt2[t] | gt2[t] | (1 << t)))
            nxt = []
            for dom, k in zip(later, kinds):
                dom &= masks[k]
                if not dom:
                    break
                nxt.append(dom)
            else:
                image[s] = t
                if rec(s + 1, nxt):
                    return True
        return False

    rec(0, cand)
    return found


def embeds(p1: Poset, p2: Poset) -> bool:
    """True iff p1 is isomorphic to a subset of p2 (induced order)."""
    return bool(_search(p1, p2))


def find_embedding(p1: Poset, p2: Poset) -> dict[str, str] | None:
    """Least witness embedding, or None.

    Sources are assigned in element-index order and targets tried in
    ascending index, so the returned map is lexicographically least.
    """
    hits = _search(p1, p2)
    if not hits:
        return None
    image = hits[0]
    return {p1.elements[i]: p2.elements[image[i]] for i in range(p1.n)}


def all_embeddings(p1: Poset, p2: Poset) -> list[dict[str, str]]:
    """Every embedding of p1 into p2, in lexicographic order."""
    hits = _search(p1, p2, limit=None)
    return [
        {p1.elements[i]: p2.elements[image[i]] for i in range(p1.n)}
        for image in hits
    ]


def contains_pattern(p: Poset, kind: PatternKind) -> bool:
    return embeds(pattern_poset(kind), p)

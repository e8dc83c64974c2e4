"""Finite strict partial orders on named elements.

The relation is stored transitively closed as one bitmask row per element:
bit j of ``lt[i]`` is set iff ``elements[i] < elements[j]``. Subsets of a
poset are plain integer bitmasks over element indices. All values are
immutable after construction, so they can be shared freely between
concurrent tasks; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable, Sequence

from .errors import CycleDetected, EmptyPoset, TooLarge, UnknownElement

#: Largest size accepted by the permutation-based canonical form.
CANONICAL_MAX = 10


@dataclass(frozen=True)
class Poset:
    """A finite strict partial order (irreflexive, transitive, antisymmetric)."""

    elements: tuple[str, ...]
    lt: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("element identifiers must be unique")
        if len(self.lt) != n:
            raise ValueError("relation must have one row per element")
        full = (1 << n) - 1
        for i, row in enumerate(self.lt):
            if row & ~full:
                raise ValueError("relation row refers to missing elements")
            if (row >> i) & 1:
                raise CycleDetected(f"{self.elements[i]!r} compares below itself")
        for i in range(n):
            row = self.lt[i]
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if (self.lt[j] >> i) & 1:
                    raise CycleDetected(
                        f"{self.elements[i]!r} and {self.elements[j]!r} "
                        "are each below the other"
                    )
                if self.lt[j] & ~row:
                    raise ValueError("relation is not transitively closed")

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def gt(self) -> tuple[int, ...]:
        """The transpose of ``lt``: bit j of ``gt[i]`` is set iff j is below i."""
        cols = [0] * self.n
        for i, row in enumerate(self.lt):
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def element_stats(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per element (up-degree, down-degree, up-height, down-height): the
        sizes of its strict up- and down-sets and the sizes of the longest
        chains that start at it going up and going down."""
        lt, gt = self.lt, self.gt
        up_chain, down_chain = chain_heights(lt), chain_heights(gt)
        return tuple(
            (lt[i].bit_count(), gt[i].bit_count(), up_chain[i], down_chain[i])
            for i in range(self.n)
        )

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise UnknownElement(f"no element named {name!r}") from None

    def less(self, i: int, j: int) -> bool:
        """True iff element i is strictly below element j."""
        return bool((self.lt[i] >> j) & 1)

    def comparable_mask(self, i: int) -> int:
        return self.lt[i] | self.gt[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rels = ", ".join(
            f"{self.elements[i]}<{self.elements[j]}"
            for i in range(self.n)
            for j in range(self.n)
            if self.less(i, j)
        )
        return f"Poset({list(self.elements)}; {rels or 'antichain'})"


def poset_from_cover(
    elements: Iterable[str], covers: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from cover relations, taking the transitive closure.

    Raises UnknownElement for covers that mention undeclared identifiers and
    CycleDetected when the closure would relate an element below itself; a
    cyclic input is never silently repaired.
    """
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise ValueError("element identifiers must be unique")
    index = {name: i for i, name in enumerate(elems)}
    n = len(elems)
    rows = [0] * n
    for lower, upper in covers:
        if lower not in index:
            raise UnknownElement(f"no element named {lower!r}")
        if upper not in index:
            raise UnknownElement(f"no element named {upper!r}")
        rows[index[lower]] |= 1 << index[upper]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    for i in range(n):
        if (rows[i] >> i) & 1:
            raise CycleDetected(f"covers create a cycle through {elems[i]!r}")
    return Poset(elems, tuple(rows))


def chain(names: Sequence[str]) -> Poset:
    """The chain names[0] < names[1] < ... < names[-1]."""
    return poset_from_cover(names, list(zip(names, names[1:])))


def antichain(names: Sequence[str]) -> Poset:
    return poset_from_cover(names, [])


def disjoint_union(*posets: Poset) -> Poset:
    """Disjoint union; element names of the parts must not collide."""
    elems: list[str] = []
    rows: list[int] = []
    offset = 0
    for p in posets:
        elems.extend(p.elements)
        rows.extend(row << offset for row in p.lt)
        offset += p.n
    return Poset(tuple(elems), tuple(rows))


def dual(p: Poset) -> Poset:
    """Transpose of the order; an involution."""
    return Poset(p.elements, p.gt)


def strict_cone(p: Poset, x: str, direction: str) -> set[str]:
    """Elements strictly above ('up') or strictly below ('down') x."""
    i = p.index(x)
    if direction == "up":
        mask = p.lt[i]
    elif direction == "down":
        mask = p.gt[i]
    else:
        raise ValueError("direction must be 'up' or 'down'")
    return set(names_of(p, mask))


def subposet(p: Poset, mask: int) -> Poset:
    """Induced subposet on the elements selected by ``mask``."""
    if mask & ~((1 << p.n) - 1):
        raise ValueError("mask refers to missing elements")
    sel = bit_indices(mask)
    pos = {i: k for k, i in enumerate(sel)}
    rows = []
    for i in sel:
        row = p.lt[i] & mask
        packed = 0
        rest = row
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            packed |= 1 << pos[j]
        rows.append(packed)
    return Poset(tuple(p.elements[i] for i in sel), tuple(rows))


def mask_of(p: Poset, names: Iterable[str]) -> int:
    mask = 0
    for name in names:
        mask |= 1 << p.index(name)
    return mask


def names_of(p: Poset, mask: int) -> tuple[str, ...]:
    return tuple(p.elements[i] for i in bit_indices(mask))


def height_width(p: Poset) -> tuple[int, int]:
    """Largest chain size and largest antichain size, computed exactly.

    By Dilworth's theorem the width is the least number of chains that
    cover p, which is n minus a maximum matching of i -> j over the pairs
    i < j (Fulkerson, Proc. AMS 7, 1956).
    """
    if p.n == 0:
        raise EmptyPoset("height and width need a nonempty poset")
    return max(chain_heights(p.lt)), p.n - _max_matching(p.lt)


def _max_matching(rows: Sequence[int]) -> int:
    """Size of a maximum matching of i -> j over the set bits j of
    ``rows[i]``, grown one augmenting path at a time.

    Each path is a depth-first search kept on an explicit stack, so its
    length is not bounded by the interpreter's recursion limit: ``path``
    holds the left ends i along the path and ``via[k]`` the j that leads
    from ``path[k]`` to ``path[k + 1]``, its current owner. Each step visits
    a new j, trying the lowest unvisited one first.
    """
    owner = [-1] * len(rows)
    size = 0
    for root in range(len(rows)):
        seen = 0
        path, via = [root], []
        while path:
            free = rows[path[-1]] & ~seen
            if not free:  # dead end: back up to the previous left end
                path.pop()
                if via:
                    via.pop()
                continue
            j = (free & -free).bit_length() - 1
            seen |= 1 << j
            via.append(j)
            if owner[j] < 0:  # augment: each left end takes its next j
                for i, jj in zip(path, via):
                    owner[jj] = i
                size += 1
                break
            path.append(owner[j])
    return size


def is_chain_mask(p: Poset, mask: int) -> bool:
    """True iff the elements selected by ``mask`` are pairwise comparable."""
    return all(
        not (mask & ~p.comparable_mask(i) & ~(1 << i)) for i in bit_indices(mask)
    )


def is_chain_poset(p: Poset) -> bool:
    """True iff all elements are pairwise comparable."""
    return is_chain_mask(p, (1 << p.n) - 1)


def is_antichain_poset(p: Poset) -> bool:
    return all(row == 0 for row in p.lt)


def _canonical_rows(p: Poset) -> tuple[int, ...]:
    """Minimal relation matrix over all relabelings of the elements."""
    n = p.n
    if n > CANONICAL_MAX:
        raise TooLarge(f"canonical form is limited to {CANONICAL_MAX} elements, got {n}")
    above = [bit_indices(row) for row in p.lt]
    best: tuple[int, ...] | None = None
    for perm in permutations(range(n)):
        rows = [0] * n
        for i in range(n):
            packed = 0
            for j in above[i]:
                packed |= 1 << perm[j]
            rows[perm[i]] = packed
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def canonical_code(p: Poset) -> bytes:
    """Byte string equal for two posets iff they are order-isomorphic."""
    rows = _canonical_rows(p)
    n = p.n
    width = max(1, (n + 7) // 8)
    return bytes([n]) + b"".join(row.to_bytes(width, "big") for row in rows)


def component_masks(p: Poset) -> list[int]:
    """Connected components of the comparability graph, as masks.

    Largest component first; components of equal size keep the order of
    their least element index, whatever their shape.
    """
    lt, gt = p.lt, p.gt
    rest = (1 << p.n) - 1
    found: list[int] = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            j = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = (lt[j] | gt[j]) & ~comp
            comp |= grow
            frontier |= grow
        rest &= ~comp
        found.append(comp)
    return sorted(found, key=lambda mask: -mask.bit_count())


def components(p: Poset) -> list[Poset]:
    """Connected components of the comparability graph, with induced order,
    in the order of ``component_masks``."""
    return [subposet(p, mask) for mask in component_masks(p)]


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def chain_heights(rows: Sequence[int]) -> list[int]:
    """Size of the longest chain starting at each element and running
    through its row: ``p.lt`` gives upward chains, ``p.gt`` downward.

    Rows are transitively closed, so every element in a row has a strictly
    smaller row; visiting elements by increasing row size settles each
    height before any row that contains it.
    """
    heights = [0] * len(rows)
    for i in sorted(range(len(rows)), key=lambda i: rows[i].bit_count()):
        best = 0
        for j in bit_indices(rows[i]):
            if heights[j] > best:
                best = heights[j]
        heights[i] = best + 1
    return heights

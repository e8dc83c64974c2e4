"""Pinboards: multisets of column heights with symbolic frequencies.

A pinboard is a finite set of (height, frequency) pairs with heights
ordinal, frequencies cardinal, and never both infinite; its poset is the
disjoint union of frequency-many chains of each height. A co-pinboard is
the same data with every chain read upside down (``starred``). Subsets of
a simple pinboard are normalized descriptors, and ``theta`` lays their
columns out, tallest first, over consecutive column blocks of the host;
containment of the resulting segment tables characterizes embeddability.
Subset pairs and table runs are kept in decreasing height order, so
``pin_embeds`` and ``theta_subset`` decide in one walk down each list.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Union

from .errors import (
    DoesNotFit,
    HostMismatch,
    InfinitePinboard,
    InvalidPinboard,
)
from .ordinal import (
    Card,
    OrdinalExpr,
    ZERO,
    card_cmp,
    card_sum,
    fin,
    initial_ordinal,
    ord_cmp,
    ord_key,
    ord_sum,
)
from .poset import Poset

Pair = tuple[OrdinalExpr, Card]


def _merge_pairs(pairs: Iterable[Pair]) -> list[Pair]:
    """Merge equal heights by cardinal sum; sort by height descending."""
    by_height: dict[OrdinalExpr, Card] = {}
    for height, freq in pairs:
        if height in by_height:
            by_height[height] = card_sum(by_height[height], freq)
        else:
            by_height[height] = freq
    return sorted(by_height.items(), key=lambda hf: ord_key(hf[0]), reverse=True)


def _check_tallest_first(items: tuple[tuple, ...], at: int, what: str) -> None:
    """Heights ``item[at]`` must not increase: the one-pass tests below
    rely on this order. Equal heights may repeat."""
    if len(items) > 1:
        keys = [ord_key(item[at]) for item in items]
        if keys != sorted(keys, reverse=True):
            raise InvalidPinboard(f"{what} must be listed in decreasing height order")


def _check_pairs(pairs: Iterable[Pair]) -> None:
    for height, freq in pairs:
        if height.is_zero:
            raise InvalidPinboard("heights must be positive")
        if not freq.is_infinite and freq.value < 1:
            raise InvalidPinboard("frequencies must be positive")
        if not height.is_finite and freq.is_infinite:
            raise InvalidPinboard(
                f"height {height} and frequency {freq} cannot both be infinite"
            )


@dataclass(frozen=True)
class Pinboard:
    """Pairs sorted by height descending; heights pairwise distinct."""

    pairs: tuple[Pair, ...]
    starred: bool = False


def pinboard(pairs: Iterable[Pair], starred: bool = False) -> Pinboard:
    """Build a pinboard, merging duplicate heights by cardinal sum."""
    merged = _merge_pairs(pairs)
    _check_pairs(merged)
    return Pinboard(tuple(merged), starred)


@dataclass(frozen=True)
class SimplePinboard:
    """Host shape {(beta, n), (m, gamma)}: n columns of infinite height
    beta plus gamma-many columns of finite height m."""

    beta: Card
    n: int
    m: int
    gamma: Card
    starred: bool = False

    def __post_init__(self) -> None:
        if not self.beta.is_infinite or not self.gamma.is_infinite:
            raise InvalidPinboard("beta and gamma must be infinite cardinals")
        if self.n < 0 or self.m < 0:
            raise InvalidPinboard("n and m must be finite and non-negative")


@dataclass(frozen=True)
class PinSubset:
    """Normalized subset of a simple pinboard: heights strictly decreasing,
    equal heights merged, absorbed entries dropped. Built directly, the
    pairs must still come tallest first (equal heights may repeat);
    anything else raises InvalidPinboard."""

    host: SimplePinboard
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        _check_tallest_first(self.pairs, 0, "subset pairs")


def normalize_subset(raw: Iterable[Pair], host: SimplePinboard) -> PinSubset:
    """Merge duplicate heights, drop absorbed entries, and fit-check.

    An entry (h', f') is absorbed by any taller entry (h, f) with f
    infinite and f >= f': since f + f' = f, the f taller chains have room
    for the f' shorter ones, so removing the entry does not change the
    embeddability class of the subset.
    """
    kept = []
    widest: Card | None = None  # largest infinite frequency seen, tallest first
    for h, f in _merge_pairs(raw):
        if not f.is_infinite and f.value == 0:
            continue
        if widest is not None and card_cmp(f, widest) <= 0:
            continue
        kept.append((h, f))
        if f.is_infinite:
            widest = f
    _check_fit(kept, host)
    return PinSubset(host, tuple(kept))


def _check_fit(pairs: list[Pair], host: SimplePinboard) -> None:
    beta_ord = initial_ordinal(host.beta)
    m_ord = fin(host.m)
    tall_total = Card.fin(0)
    for height, freq in pairs:
        if height.is_zero:
            raise DoesNotFit("subset heights must be positive")
        if ord_cmp(height, beta_ord) > 0:
            raise DoesNotFit(f"height {height} exceeds the tall columns ({beta_ord})")
        if ord_cmp(height, m_ord) > 0:
            tall_total = card_sum(tall_total, freq)
        elif card_cmp(freq, host.gamma) > 0:
            raise DoesNotFit(f"frequency {freq} of height {height} exceeds {host.gamma}")
    if card_cmp(tall_total, Card.fin(host.n)) > 0:
        raise DoesNotFit(
            f"{tall_total} columns taller than {host.m} exceed the {host.n} tall columns"
        )


@dataclass(frozen=True)
class ThetaSegments:
    """Run-length column table: runs of (count, height) over consecutive
    column blocks starting at column 0, heights strictly decreasing, with
    an implicit trailing run of height 0. Built directly, the runs must
    still come tallest first (equal heights may repeat); anything else
    raises InvalidPinboard."""

    host: SimplePinboard
    runs: tuple[tuple[Card, OrdinalExpr], ...]

    def __post_init__(self) -> None:
        _check_tallest_first(self.runs, 1, "segment runs")


def theta(host: SimplePinboard, y: PinSubset) -> ThetaSegments:
    """Column assignment for a normalized subset: its pairs, tallest
    first, occupy consecutive column blocks of the host."""
    if y.host != host:
        raise HostMismatch("subset was normalized against a different host")
    return ThetaSegments(host, tuple((f, h) for h, f in y.pairs))


def run_positions(
    segs: ThetaSegments,
) -> list[tuple[OrdinalExpr, OrdinalExpr, Card, OrdinalExpr]]:
    """(start, end, count, height) per run; positions are ordinal column
    indices, so an infinite run absorbs any finite offset before it."""
    out = []
    pos = ZERO
    for count, height in segs.runs:
        end = ord_sum(pos, initial_ordinal(count))
        out.append((pos, end, count, height))
        pos = end
    return out


def theta_subset(a: ThetaSegments, b: ThetaSegments) -> bool:
    """Column-wise containment: at every column position the height of a
    is at most the height of b.

    The column heights are non-increasing step functions, so containment
    holds iff at every height threshold of a, the block of a-columns
    reaching it is no longer (as an ordinal position) than b's block.
    Both tables list their runs tallest first, so one walk down a, with a
    pointer into b, adds up both blocks as the threshold falls; a later
    run of equal height only lengthens a's block, so equal heights give
    the verdict of the threshold's last run.
    """
    if a.host != b.host:
        raise HostMismatch("segment tables belong to different hosts")
    other = b.runs
    j = 0
    pos, reach = ZERO, ZERO
    for count, height in a.runs:
        pos = ord_sum(pos, initial_ordinal(count))
        while j < len(other) and ord_cmp(other[j][1], height) >= 0:
            reach = ord_sum(reach, initial_ordinal(other[j][0]))
            j += 1
        if ord_cmp(pos, reach) > 0:
            return False
    return True


def pin_embeds(y: PinSubset, y2: PinSubset) -> bool:
    """Embeddability of subset posets by the cumulative-frequency test:
    for every height of y, the columns of y at least that tall must fit
    injectively among the columns of y2 at least that tall.

    Both subsets list their pairs tallest first, so one walk down y, with
    a pointer into y2, adds up both counts as the height falls; equal
    heights, which a normalized subset never has, give the verdict of
    their last pair.
    """
    if y.host != y2.host:
        raise HostMismatch("subsets belong to different hosts")
    other = y2.pairs
    j = 0
    need = have = Card.fin(0)
    for height, freq in y.pairs:
        need = card_sum(need, freq)
        while j < len(other) and ord_cmp(other[j][0], height) >= 0:
            have = card_sum(have, other[j][1])
            j += 1
        if card_cmp(need, have) > 0:
            return False
    return True


CoDualable = Union[Pinboard, PinSubset, ThetaSegments]


def co_dual(x: CoDualable) -> CoDualable:
    """Flip between a pinboard-style value and its co-form (chains read
    upside down). Applying it twice is the identity."""
    if isinstance(x, Pinboard):
        return replace(x, starred=not x.starred)
    return replace(x, host=replace(x.host, starred=not x.host.starred))


def pinboard_poset(pb: Pinboard | PinSubset) -> Poset:
    """Explicit poset of an all-finite pinboard: freq-many copies of each
    height-chain, elements named c{pair}_{copy}_{level}, with each chain's
    closed relation rows written directly."""
    for height, freq in pb.pairs:
        if not height.is_finite or freq.is_infinite:
            raise InfinitePinboard(
                f"cannot expand ({height},{freq}); both entries must be finite"
            )
    names: list[str] = []
    rows: list[int] = []
    for i, (height, freq) in enumerate(pb.pairs):
        h = height.as_finite()
        # level l of a chain lies below its levels l + 1 .. h - 1
        chain = [((1 << (h - level - 1)) - 1) << (level + 1) for level in range(h)]
        for j in range(freq.value):
            base = len(names)
            names += [f"c{i}_{j}_{level}" for level in range(h)]
            rows += [row << base for row in chain]
    return Poset(tuple(names), tuple(rows))

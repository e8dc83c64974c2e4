"""Structural classification of posets for sub-representability.

A finite poset is sub-representable exactly when it is a flower, a
co-flower, or a disjoint union of chains; anything else contains a
four-point obstruction, which the classifier reports as a re-checkable
embedding. Described infinite posets (chains, flowers with symbolic data,
pinboard posets) are judged through the same characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .embed import (
    PatternKind,
    find_embedding,
    obstruction_patterns,
    pattern_poset,
)
from .errors import EmptyPoset, InvalidDescriptor
from .ordinal import Card, OrdinalExpr, card_cmp
from .pinboard import Pinboard
from .poset import Poset, bit_indices, component_masks, is_chain_mask, names_of, subposet


class VerdictKind(Enum):
    FLOWER = "flower"
    CO_FLOWER = "coFlower"
    UNION_OF_CHAINS = "unionOfChains"
    PINBOARD_POSET = "pinboardPoset"
    CO_PINBOARD_POSET = "coPinboardPoset"
    NOT_SUB_REPRESENTABLE = "notSubRepresentable"


@dataclass(frozen=True)
class PatternMatch:
    """An embedding of a named pattern, re-checkable against the host."""

    kind: PatternKind
    mapping: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Witness:
    center: str | None = None
    chains: tuple[tuple[str, ...], ...] | None = None
    patterns: tuple[PatternMatch, ...] | None = None
    reason: str | None = None

    def as_dict(self) -> dict:
        if self.center is not None:
            return {"center": self.center}
        if self.chains is not None:
            return {"chains": [list(c) for c in self.chains]}
        if self.patterns is not None:
            return {
                "patterns": [
                    {"pattern": m.kind.value, "map": dict(m.mapping)}
                    for m in self.patterns
                ]
            }
        return {"reason": self.reason}


@dataclass(frozen=True)
class Verdict:
    sub_representable: bool
    kind: VerdictKind
    witness: Witness | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "subRepresentable": self.sub_representable,
            "witness": None if self.witness is None else self.witness.as_dict(),
        }


def is_flower(p: Poset) -> str | None:
    """Least element x with everything below x a chain (possibly empty),
    everything above x an antichain of size >= 2, and nothing else."""
    return _flower_center(p, p.lt, p.gt)


def is_coflower(p: Poset) -> str | None:
    """``is_flower`` of the dual order, read off the transposed rows."""
    return _flower_center(p, p.gt, p.lt)


def _flower_center(
    p: Poset, up_rows: tuple[int, ...], down_rows: tuple[int, ...]
) -> str | None:
    """The flower test on the order whose strict up-sets are ``up_rows``
    and down-sets ``down_rows``: ``p.lt`` and ``p.gt``, or the reverse for
    the dual. Comparability, so ``is_chain_mask``, is the same in both."""
    full = (1 << p.n) - 1
    for i in range(p.n):
        up = up_rows[i]
        if up.bit_count() < 2:
            continue
        down = down_rows[i]
        if (up | down | (1 << i)) != full:
            continue
        if any(up_rows[j] & up for j in bit_indices(up)):
            continue
        if not is_chain_mask(p, down):
            continue
        return p.elements[i]
    return None


def _chain_components(p: Poset) -> list[int] | None:
    """The component masks in ``component_masks`` order, or None if some
    component is not a chain."""
    masks = component_masks(p)
    if not all(is_chain_mask(p, mask) for mask in masks):
        return None
    return masks


def is_union_of_chains(p: Poset) -> list[Poset] | None:
    """Component chains sorted by height descending, ties by least element
    index, or None if some component is not a chain."""
    masks = _chain_components(p)
    if masks is None:
        return None
    return [subposet(p, mask) for mask in masks]


def classify_finite(p: Poset) -> Verdict:
    """Decide sub-representability of a finite poset structurally.

    Works on the relation rows and component masks of p; it builds no
    derived poset. Negative verdicts carry an embedded witness pattern: a
    diamond if one is present, else a vee and a wedge, else one of the
    seven four-point obstructions (in canonical-code order).
    """
    if p.n == 0:
        raise EmptyPoset("classification needs a nonempty poset")
    masks = _chain_components(p)
    if masks is not None:
        return Verdict(
            True,
            VerdictKind.UNION_OF_CHAINS,
            Witness(chains=tuple(names_of(p, mask) for mask in masks)),
        )
    center = is_flower(p)
    if center is not None:
        return Verdict(True, VerdictKind.FLOWER, Witness(center=center))
    center = is_coflower(p)
    if center is not None:
        return Verdict(True, VerdictKind.CO_FLOWER, Witness(center=center))
    return Verdict(False, VerdictKind.NOT_SUB_REPRESENTABLE, _negative_witness(p))


def _negative_witness(p: Poset) -> Witness | None:
    diamond = _match(p, PatternKind.DIAMOND)
    if diamond is not None:
        return Witness(patterns=(diamond,))
    vee = _match(p, PatternKind.VEE)
    wedge = _match(p, PatternKind.WEDGE)
    if vee is not None and wedge is not None:
        return Witness(patterns=(vee, wedge))
    for kind in obstruction_patterns():
        hit = _match(p, kind)
        if hit is not None:
            return Witness(patterns=(hit,))
    return None


def _match(p: Poset, kind: PatternKind) -> PatternMatch | None:
    mapping = find_embedding(pattern_poset(kind), p)
    if mapping is None:
        return None
    return PatternMatch(kind, tuple(sorted(mapping.items())))


@dataclass(frozen=True)
class ChainDescriptor:
    """A described linear order: a finite chain, a well-ordered chain of
    a given order type, its reverse, or a chain that is neither (so it
    contains both an increasing and a decreasing copy of the naturals)."""

    kind: str  # 'finite' | 'well_ordered' | 'well_ordered_star' | 'neither'
    order_type: OrdinalExpr | None = None
    tag: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "well_ordered", "well_ordered_star", "neither"):
            raise InvalidDescriptor(f"unknown chain kind {self.kind!r}")
        if self.kind == "finite":
            if self.order_type is None or not self.order_type.is_finite:
                raise InvalidDescriptor("finite chains need a finite order type")
            if self.order_type.as_finite() < 1:
                raise InvalidDescriptor("finite chains have at least one point")
        elif self.kind == "neither":
            if not self.tag:
                raise InvalidDescriptor("a 'neither' chain needs a tag")
        elif self.order_type is None:
            raise InvalidDescriptor(f"{self.kind} chains need an order type")

    @classmethod
    def finite(cls, n: int) -> "ChainDescriptor":
        return cls("finite", OrdinalExpr((), n))

    @classmethod
    def well_ordered(cls, alpha: OrdinalExpr) -> "ChainDescriptor":
        return cls("well_ordered", alpha)

    @classmethod
    def well_ordered_star(cls, alpha: OrdinalExpr) -> "ChainDescriptor":
        return cls("well_ordered_star", alpha)

    @classmethod
    def neither(cls, tag: str) -> "ChainDescriptor":
        return cls("neither", None, tag)


#: The familiar chains that are neither well-ordered nor reverse well-ordered.
INTEGERS = ChainDescriptor.neither("Z")
RATIONALS = ChainDescriptor.neither("Q")
REALS = ChainDescriptor.neither("R")
IRRATIONALS = ChainDescriptor.neither("R\\Q")


def classify_chain(d: ChainDescriptor) -> Verdict:
    if d.kind == "finite":
        return Verdict(True, VerdictKind.UNION_OF_CHAINS)
    if d.kind == "well_ordered":
        return Verdict(True, VerdictKind.PINBOARD_POSET)
    if d.kind == "well_ordered_star":
        return Verdict(True, VerdictKind.CO_PINBOARD_POSET)
    return Verdict(
        False,
        VerdictKind.NOT_SUB_REPRESENTABLE,
        Witness(
            reason=f"chain {d.tag} contains both an increasing and a "
            "decreasing copy of the naturals"
        ),
    )


@dataclass(frozen=True)
class PosetDescriptor:
    """A poset given either explicitly (finite) or symbolically."""

    kind: str  # 'finite' | 'chain' | 'pinboard' | 'co_pinboard' | 'flower' | 'co_flower'
    finite_poset: Poset | None = None
    chain: ChainDescriptor | None = None
    board: Pinboard | None = None
    stem_chain: OrdinalExpr | None = None
    width: Card | None = None

    def __post_init__(self) -> None:
        if self.kind == "finite":
            if self.finite_poset is None:
                raise InvalidDescriptor("finite descriptor needs a poset")
        elif self.kind == "chain":
            if self.chain is None:
                raise InvalidDescriptor("chain descriptor needs a chain")
        elif self.kind in ("pinboard", "co_pinboard"):
            if self.board is None:
                raise InvalidDescriptor("pinboard descriptor needs a pinboard")
            if self.board.starred != (self.kind == "co_pinboard"):
                raise InvalidDescriptor(
                    "pinboard needs an unstarred board, co_pinboard a starred one")
        elif self.kind in ("flower", "co_flower"):
            if self.stem_chain is None or self.width is None:
                raise InvalidDescriptor("flower descriptors need a stem and a width")
            if card_cmp(self.width, Card.fin(2)) < 0:
                raise InvalidDescriptor("flower width must be at least 2")
        else:
            raise InvalidDescriptor(f"unknown descriptor kind {self.kind!r}")

    @classmethod
    def finite(cls, p: Poset) -> "PosetDescriptor":
        return cls("finite", finite_poset=p)

    @classmethod
    def of_chain(cls, d: ChainDescriptor) -> "PosetDescriptor":
        return cls("chain", chain=d)

    @classmethod
    def pinboard_poset(cls, pb: Pinboard) -> "PosetDescriptor":
        return cls("pinboard", board=pb)

    @classmethod
    def co_pinboard_poset(cls, pb: Pinboard) -> "PosetDescriptor":
        return cls("co_pinboard", board=pb)

    @classmethod
    def flower(cls, down_chain: OrdinalExpr, width: Card) -> "PosetDescriptor":
        """Flower with reverse well-ordered stem of order type down_chain*
        below the center and an antichain of the given width above it."""
        return cls("flower", stem_chain=down_chain, width=width)

    @classmethod
    def co_flower(cls, up_chain: OrdinalExpr, width: Card) -> "PosetDescriptor":
        return cls("co_flower", stem_chain=up_chain, width=width)


def classify_descriptor(d: PosetDescriptor) -> Verdict:
    if d.kind == "finite":
        return classify_finite(d.finite_poset)
    if d.kind == "chain":
        return classify_chain(d.chain)
    if d.kind == "pinboard":
        return Verdict(True, VerdictKind.PINBOARD_POSET)
    if d.kind == "co_pinboard":
        return Verdict(True, VerdictKind.CO_PINBOARD_POSET)
    if d.kind == "flower":
        return Verdict(True, VerdictKind.FLOWER)
    return Verdict(True, VerdictKind.CO_FLOWER)


def recheck_witness(p: Poset, witness: Witness) -> bool:
    """Verify that every pattern embedding in a witness really holds in p."""
    if not witness.patterns:
        return False
    for match in witness.patterns:
        pat = pattern_poset(match.kind)
        mapping = dict(match.mapping)
        if set(mapping) != set(pat.elements):
            return False
        targets = [mapping[name] for name in pat.elements]
        if len(set(targets)) != len(targets):
            return False
        idx = [p.index(t) for t in targets]
        for i in range(pat.n):
            for j in range(pat.n):
                if pat.less(i, j) != p.less(idx[i], idx[j]):
                    return False
    return True

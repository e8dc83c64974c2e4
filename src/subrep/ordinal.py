"""Symbolic ordinal and cardinal arithmetic.

The ordinal fragment is finite sums of initial-ordinal terms with a finite
tail: w2*3 + w0 + 5 and the like. Each w_k is additively indecomposable, so
left-to-right addition and comparison are decidable by normal-form
bookkeeping alone; full Cantor normal form with exponent towers is
deliberately out of scope. Cardinals are kept as a separate type (finite or
aleph_k) with an explicit conversion to their initial ordinal, because the
two arithmetics differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .errors import BetaExceedsAlpha


@total_ordering
@dataclass(frozen=True)
class OrdinalExpr:
    """Normalized ordinal: omega terms with strictly decreasing indices,
    then a finite tail. The zero ordinal is the empty expression."""

    terms: tuple[tuple[int, int], ...] = ()  # (omega index, multiplicity)
    tail: int = 0

    def __post_init__(self) -> None:
        if self.tail < 0:
            raise ValueError("finite tail must be non-negative")
        last = None
        for k, mult in self.terms:
            if k < 0 or mult < 1:
                raise ValueError("omega terms need index >= 0 and multiplicity >= 1")
            if last is not None and k >= last:
                raise ValueError("omega indices must be strictly decreasing")
            last = k

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.tail == 0

    @property
    def is_finite(self) -> bool:
        return not self.terms

    def as_finite(self) -> int:
        if self.terms:
            raise ValueError(f"{self} is not a finite ordinal")
        return self.tail

    def __lt__(self, other: "OrdinalExpr") -> bool:
        return ord_key(self) < ord_key(other)

    def __str__(self) -> str:
        parts = [f"w{k}" if m == 1 else f"w{k}*{m}" for k, m in self.terms]
        if self.tail or not parts:
            parts.append(str(self.tail))
        return "+".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrdinalExpr({self})"


ZERO = OrdinalExpr()


def fin(n: int) -> OrdinalExpr:
    return OrdinalExpr((), n)


def omega(k: int, mult: int = 1) -> OrdinalExpr:
    return OrdinalExpr(((k, mult),), 0)


def ord_sum(a: OrdinalExpr, b: OrdinalExpr) -> OrdinalExpr:
    """Ordinal addition a + b; the left summand is absorbed below b's
    leading term."""
    if not b.terms:
        return OrdinalExpr(a.terms, a.tail + b.tail)
    lead, lead_mult = b.terms[0]
    kept = tuple(t for t in a.terms if t[0] > lead)
    for k, mult in a.terms:
        if k == lead:
            lead_mult += mult
            break
    return OrdinalExpr(kept + ((lead, lead_mult),) + b.terms[1:], b.tail)


def ord_key(a: OrdinalExpr) -> tuple[tuple[tuple[int, int], ...], int]:
    """Sort key of the ordinal order: the normalized terms compare
    lexicographically (a larger omega index or multiplicity first is
    larger, and a proper prefix is smaller), then the finite tail."""
    return (a.terms, a.tail)


def ord_cmp(a: OrdinalExpr, b: OrdinalExpr) -> int:
    """-1, 0 or 1 as a < b, a = b or a > b."""
    ka, kb = ord_key(a), ord_key(b)
    return (ka > kb) - (ka < kb)


@total_ordering
@dataclass(frozen=True)
class Card:
    """Symbolic cardinal: kind 'fin' with a value, or kind 'aleph' with an
    index (aleph_k, the k-th infinite initial ordinal)."""

    kind: str
    value: int

    def __post_init__(self) -> None:
        if self.kind not in ("fin", "aleph"):
            raise ValueError("cardinal kind must be 'fin' or 'aleph'")
        if self.value < 0:
            raise ValueError("cardinal value must be non-negative")

    @classmethod
    def fin(cls, n: int) -> "Card":
        return cls("fin", n)

    @classmethod
    def aleph(cls, k: int) -> "Card":
        return cls("aleph", k)

    @property
    def is_infinite(self) -> bool:
        return self.kind == "aleph"

    def __lt__(self, other: "Card") -> bool:
        return card_cmp(self, other) < 0

    def __str__(self) -> str:
        return f"aleph{self.value}" if self.is_infinite else str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Card({self})"


def card_cmp(a: Card, b: Card) -> int:
    """Finite cardinals sit below every aleph; within a kind, by value."""
    ka = (1 if a.is_infinite else 0, a.value)
    kb = (1 if b.is_infinite else 0, b.value)
    return (ka > kb) - (ka < kb)


def card_sum(a: Card, b: Card) -> Card:
    if a.is_infinite or b.is_infinite:
        return a if card_cmp(a, b) >= 0 else b
    return Card.fin(a.value + b.value)


def initial_ordinal(c: Card) -> OrdinalExpr:
    """The least ordinal of cardinality c: n itself, or w_k for aleph_k."""
    return omega(c.value) if c.is_infinite else fin(c.value)


@dataclass(frozen=True)
class Segment:
    """A segment of a chain of order type ``whole`` (or its reverse).

    ``mode`` 'wellordered' names the initial segment of order type
    ``order_type``; 'wellordered_star' names the final segment of the
    reversed chain whose order type is the reverse of ``order_type``.
    """

    mode: str
    whole: OrdinalExpr
    order_type: OrdinalExpr

    @property
    def is_whole(self) -> bool:
        return self.order_type == self.whole

    def __str__(self) -> str:
        if self.mode == "wellordered":
            return f"initial segment {self.order_type} of {self.whole}"
        return f"final segment of {self.whole}* of order type {self.order_type}*"


def subrep_ordinal(
    alpha: OrdinalExpr, beta: OrdinalExpr, mode: str = "wellordered"
) -> Segment:
    """Representative segment for a subchain of order type beta inside a
    chain of order type alpha (or alpha* in star mode)."""
    if mode not in ("wellordered", "wellordered_star"):
        raise ValueError("mode must be 'wellordered' or 'wellordered_star'")
    if ord_cmp(beta, alpha) > 0:
        raise BetaExceedsAlpha(f"{beta} exceeds {alpha}")
    return Segment(mode, alpha, beta)

"""Reference answers computed without the library under test.

Nothing here imports ``subrep``. A poset is a dict from element name to the
frozenset of names strictly above it, built from the generator's own cover
list, so a defect in the library's closure, labelling or search cannot hide
in its own check.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

#: Number of posets on n unlabelled points, n = 0..5 (OEIS A000112).
POSET_COUNTS = (1, 1, 2, 5, 16, 63)

#: The named patterns a negative verdict may cite, as cover lists on 0..k-1.
PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "vee": (3, ((0, 1), (0, 2))),
    "wedge": (3, ((0, 2), (1, 2))),
    "diamond": (4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    "two_chain_plus_point": (3, ((0, 1),)),
    "vee_plus_point": (4, ((0, 1), (0, 2))),
    "wedge_plus_point": (4, ((0, 2), (1, 2))),
    "long_arm_vee": (4, ((0, 1), (1, 2), (0, 3))),
    "long_arm_wedge": (4, ((0, 1), (1, 2), (3, 2))),
    "crown": (4, ((0, 2), (0, 3), (1, 2), (1, 3))),
    "fence": (4, ((0, 2), (1, 2), (1, 3))),
}

#: The four-point shapes whose presence alone blocks sub-representability.
OBSTRUCTIONS = frozenset(
    ("diamond", "vee_plus_point", "wedge_plus_point", "long_arm_vee",
     "long_arm_wedge", "crown", "fence")
)

Up = dict[str, frozenset[str]]


def close(names, covers) -> Up:
    """Strict up-sets of the order generated by ``covers``."""
    succ: dict[str, set[str]] = {x: set() for x in names}
    for lower, upper in covers:
        succ[lower].add(upper)
    up: dict[str, frozenset[str]] = {}

    def above(x: str) -> frozenset[str]:
        if x not in up:
            acc: set[str] = set()
            for y in succ[x]:
                acc.add(y)
                acc |= above(y)
            up[x] = frozenset(acc)
        return up[x]

    for x in names:
        above(x)
    return up


def dual(up: Up) -> Up:
    down: dict[str, set[str]] = {x: set() for x in up}
    for x, ys in up.items():
        for y in ys:
            down[y].add(x)
    return {x: frozenset(s) for x, s in down.items()}


def comparable(up: Up, a: str, b: str) -> bool:
    return b in up[a] or a in up[b]


def is_chain(up: Up, xs) -> bool:
    xs = list(xs)
    return all(comparable(up, a, b) for i, a in enumerate(xs) for b in xs[i + 1:])


def is_antichain(up: Up, xs) -> bool:
    xs = list(xs)
    return not any(comparable(up, a, b) for i, a in enumerate(xs) for b in xs[i + 1:])


def components(up: Up) -> list[set[str]]:
    left = set(up)
    out = []
    while left:
        todo = [left.pop()]
        comp = set(todo)
        while todo:
            x = todo.pop()
            for y in list(left):
                if comparable(up, x, y):
                    left.discard(y)
                    comp.add(y)
                    todo.append(y)
        out.append(comp)
    return out


def is_flower_center(up: Up, c: str) -> bool:
    """Everything else is above or below c; above c is an antichain of at
    least two points and below c is a chain."""
    above = up[c]
    below = {x for x in up if c in up[x]}
    return (
        len(above) + len(below) == len(up) - 1
        and len(above) >= 2
        and is_antichain(up, above)
        and is_chain(up, below)
    )


def verdict_kind(up: Up) -> str:
    """The verdict kind the classifier must return, by the characterisation:
    a union of chains, else a flower, else a co-flower, else negative."""
    if all(is_chain(up, c) for c in components(up)):
        return "unionOfChains"
    if any(is_flower_center(up, c) for c in up):
        return "flower"
    down = dual(up)
    if any(is_flower_center(down, c) for c in down):
        return "coFlower"
    return "notSubRepresentable"


def induces(up: Up, pattern: str, mapping: dict[str, str]) -> bool:
    """The image of ``mapping`` is a set of distinct points whose induced
    order is isomorphic to the named pattern."""
    size, covers = PATTERNS[pattern]
    image = list(mapping.values())
    if len(mapping) != size or len(set(image)) != size or not set(image) <= set(up):
        return False
    pat = close(range(size), covers)
    return any(
        all((image[perm[j]] in up[image[perm[i]]]) == (j in pat[i])
            for i in range(size) for j in range(size) if i != j)
        for perm in permutations(range(size))
    )


def check_verdict(up: Up, payload: dict) -> str | None:
    """None when a ``classify`` payload is right for ``up``, else why not."""
    want = verdict_kind(up)
    if payload.get("kind") != want:
        return f"kind {payload.get('kind')!r}, expected {want!r}"
    if payload.get("subRepresentable") != (want != "notSubRepresentable"):
        return "subRepresentable flag contradicts the kind"
    witness = payload.get("witness") or {}
    if want == "unionOfChains":
        chains = witness.get("chains") or []
        flat = [x for c in chains for x in c]
        if sorted(flat) != sorted(up):
            return "chains do not partition the poset"
        if not all(is_chain(up, c) for c in chains):
            return "a listed chain is not a chain"
        for i, a in enumerate(chains):
            for b in chains[i + 1:]:
                if any(comparable(up, x, y) for x in a for y in b):
                    return "two listed chains are comparable"
        return None
    if want in ("flower", "coFlower"):
        center = witness.get("center")
        order = up if want == "flower" else dual(up)
        if center not in order or not is_flower_center(order, center):
            return f"{center!r} is not a {want} center"
        return None
    patterns = witness.get("patterns") or []
    names = [m.get("pattern") for m in patterns]
    if not (names in (["diamond"], ["vee", "wedge"])
            or (len(names) == 1 and names[0] in OBSTRUCTIONS)):
        return f"patterns {names} are not an obstruction"
    for m in patterns:
        if not induces(up, m["pattern"], m.get("map") or {}):
            return f"map does not induce {m['pattern']}"
    return None


def degree_profile(up: Up, xs) -> list[tuple[int, int]]:
    """Sorted (up-degree, down-degree) pairs of the induced order on xs;
    equal for isomorphic subsets."""
    xs = set(xs)
    return sorted((len(up[x] & xs), sum(x in up[y] for y in xs)) for x in xs)


def check_table(up: Up, rows) -> str | None:
    """A witnessing table as ``[[subset], [image]]`` rows must cover every
    nonempty subset once, and each image must be a subset of the same size
    and degree profile (isomorphic subsets agree on both)."""
    n = len(up)
    seen = set()
    for sub, img in rows:
        key = frozenset(sub)
        if key in seen or not key or not key <= set(up):
            return "subset repeated, empty or foreign"
        seen.add(key)
        if not img or not set(img) <= set(up) or len(set(img)) != len(img):
            return f"image of {sub} is not a nonempty subset"
        if len(img) != len(sub) or degree_profile(up, img) != degree_profile(up, sub):
            return f"image of {sub} cannot be isomorphic to it"
    if len(seen) != (1 << n) - 1:
        return f"table covers {len(seen)} of {(1 << n) - 1} nonempty subsets"
    return None


@cache
def positive_classes(n: int) -> int:
    """How many isomorphism classes of n-point posets are sub-representable,
    by brute force over relations compatible with the index order (every
    poset has a linear extension) and minimal relabelled edge lists."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(permutations(range(n)))
    verdicts: dict[tuple, bool] = {}
    for bits in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if bits >> k & 1}
        if any((a, c) not in rel for a, b in rel for b2, c in rel if b == b2):
            continue
        key = min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in perms)
        if key not in verdicts:
            verdicts[key] = verdict_kind(close(range(n), rel)) != "notSubRepresentable"
    if len(verdicts) != POSET_COUNTS[n]:
        raise AssertionError(f"enumerated {len(verdicts)} classes on {n} points")
    return sum(verdicts.values())


def chains_embed(lengths_a, lengths_b) -> bool:
    """A disjoint union of chains embeds into another iff, both sorted
    longest first, every chain of the first fits the matching chain of the
    second: each chain must land inside its own target chain."""
    a = sorted(lengths_a, reverse=True)
    b = sorted(lengths_b, reverse=True)
    return len(a) <= len(b) and all(x <= y for x, y in zip(a, b))


def _height(text: str) -> tuple[int, int]:
    """An ordinal ``wI+k``, ``wI`` or ``k`` as (I, k), finite ones as
    (-1, k), so that tuple order is ordinal order (``wI`` is omega_I)."""
    head, _, tail = text.partition("+")
    if head.startswith("w"):
        return int(head[1:]), int(tail or 0)
    return -1, int(head)


def _card(text: str) -> tuple[int, int]:
    """A cardinal ``alephI`` or ``k`` as (1, I) or (0, k)."""
    return (1, int(text[5:])) if text.startswith("aleph") else (0, int(text))


def _card_sum(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return max(a, b) if a[0] or b[0] else (0, a[1] + b[1])


def pin_subsets_embed(pairs_a, pairs_b) -> bool:
    """Whether the disjoint union of chains ``pairs_a`` (raw (height,
    frequency) texts: ``frequency`` chains of order type ``height``) embeds
    into ``pairs_b``. Each chain must land in its own target chain, one at
    least as tall, and the targets are nested by height, so by Hall's
    condition it embeds iff, at each height h of ``pairs_a``, ``pairs_b``
    has at least as many chains of height >= h as ``pairs_a`` has."""
    a = [(_height(h), _card(f)) for h, f in pairs_a]
    b = [(_height(h), _card(f)) for h, f in pairs_b]

    def at_least(pairs, h):
        total = (0, 0)
        for height, freq in pairs:
            if height >= h:
                total = _card_sum(total, freq)
        return total

    return all(at_least(a, h) <= at_least(b, h) for h, _ in a)

"""Poset construction, structural queries, and canonical forms."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import subrep as sr
from subrep.poset import chain_heights, component_masks, is_chain_mask
from conftest import (
    components_by_subposet,
    fig1_poset,
    fig3_poset,
    max_antichain_exhaustive,
    random_poset,
)


def test_from_cover_transitive_closure():
    p = sr.poset_from_cover("abc", [("a", "b"), ("b", "c")])
    assert p.less(p.index("a"), p.index("c"))
    assert sr.height_width(p) == (3, 1)


def test_from_cover_fig3():
    p = fig3_poset()
    assert p.less(0, 2)  # 1 < 3 derived
    assert not p.less(0, 3) and not p.less(3, 0)  # 1 and 4 incomparable


def test_from_cover_rejects_self_cover():
    with pytest.raises(sr.CycleDetected):
        sr.poset_from_cover("a", [("a", "a")])


def test_from_cover_rejects_cycles():
    with pytest.raises(sr.CycleDetected):
        sr.poset_from_cover("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def test_from_cover_unknown_element():
    with pytest.raises(sr.UnknownElement):
        sr.poset_from_cover("ab", [("a", "z")])


def test_from_cover_duplicate_names():
    with pytest.raises(ValueError):
        sr.poset_from_cover(["a", "a"], [])


def test_dual_examples():
    vee = sr.pattern_poset(sr.PatternKind.VEE)
    wedge = sr.pattern_poset(sr.PatternKind.WEDGE)
    assert sr.canonical_code(sr.dual(vee)) == sr.canonical_code(wedge)
    four = sr.antichain("wxyz")
    assert sr.dual(four) == four
    c3 = sr.chain("abc")
    assert sr.canonical_code(sr.dual(c3)) == sr.canonical_code(c3)


def test_dual_is_involution():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poset(rng, rng.randint(0, 6))
        assert sr.dual(sr.dual(p)) == p


def test_strict_cone_fig3():
    p = fig3_poset()
    assert sr.strict_cone(p, "2", "up") == {"3"}
    assert sr.strict_cone(p, "1", "up") == {"2", "3"}
    assert sr.strict_cone(p, "3", "up") == set()
    assert sr.strict_cone(p, "3", "down") == {"1", "2", "4"}


def test_strict_cone_unknown():
    with pytest.raises(sr.UnknownElement):
        sr.strict_cone(fig3_poset(), "9", "up")


def test_height_width():
    assert sr.height_width(sr.pattern_poset(sr.PatternKind.DIAMOND)) == (3, 2)
    assert sr.height_width(sr.antichain("abcde")) == (1, 5)
    assert sr.height_width(fig1_poset()) == (3, 2)
    with pytest.raises(sr.EmptyPoset):
        sr.height_width(sr.antichain([]))


def test_height_width_dual_invariant():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 6))
        assert sr.height_width(p) == sr.height_width(sr.dual(p))


def test_width_matches_branch_and_bound():
    rng = random.Random(2024)
    for _ in range(1000):
        p = random_poset(rng, rng.randint(1, 12), rng.uniform(0.02, 0.6))
        assert sr.height_width(p)[1] == max_antichain_exhaustive(p)


def test_width_of_long_fence():
    """A fence a_k < b_(k-1), b_k of 2400 points, whose augmenting paths run
    its whole length, keeps clear of the recursion limit."""
    k = 1200
    names = tuple(f"a{i}" for i in range(k)) + tuple(f"b{i}" for i in range(k))
    rows = tuple((1 << (k + i)) | (1 << (k + i - 1) if i else 0) for i in range(k))
    fence = sr.Poset(names, rows + (0,) * k)
    assert sr.height_width(fence) == (2, 1200)


def test_component_masks_match_reference():
    rng = random.Random(1605)
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 12), rng.choice([0.05, 0.15, 0.3]))
        masks = component_masks(p)
        assert [sr.names_of(p, m) for m in masks] == [
            c.elements for c in components_by_subposet(p)
        ]


def test_canonical_code_iso_invariance():
    a = sr.poset_from_cover("abc", [("a", "b"), ("a", "c")])
    b = sr.poset_from_cover("xyz", [("z", "x"), ("z", "y")])
    assert sr.canonical_code(a) == sr.canonical_code(b)


def test_canonical_code_distinguishes():
    vee = sr.pattern_poset(sr.PatternKind.VEE)
    wedge = sr.pattern_poset(sr.PatternKind.WEDGE)
    assert sr.canonical_code(vee) != sr.canonical_code(wedge)


def test_canonical_code_guard():
    with pytest.raises(sr.TooLarge, match="canonical form is limited to 10 elements, got 11"):
        sr.canonical_code(sr.antichain([f"x{i}" for i in range(11)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**10 - 1), st.permutations(list(range(5))), st.randoms())
def test_canonical_code_relabeling_invariant(bits, perm, _rng):
    cells = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    covers = [cells[k] for k in range(10) if (bits >> k) & 1]
    names = [f"n{i}" for i in range(5)]
    p = sr.poset_from_cover(names, [(names[i], names[j]) for i, j in covers])
    relabeled = sr.poset_from_cover(
        [names[perm[i]] for i in range(5)],
        [(names[i], names[j]) for i, j in covers],
    )
    assert sr.canonical_code(p) == sr.canonical_code(relabeled)


def test_components_examples():
    p = sr.disjoint_union(sr.chain(["a", "b", "c"]), sr.antichain(["z"]))
    assert [c.elements for c in sr.components(p)] == [("a", "b", "c"), ("z",)]
    connected = fig3_poset()
    assert [c.elements for c in sr.components(connected)] == [("1", "2", "3", "4")]
    assert len(sr.components(sr.antichain("wxyz"))) == 4


def test_components_order_by_size_then_least_index():
    vee = sr.poset_from_cover("abc", [("a", "b"), ("a", "c")])
    wedge = sr.poset_from_cover("xyz", [("x", "z"), ("y", "z")])
    point = sr.antichain(["p"])
    for first, second in ((vee, wedge), (wedge, vee)):
        p = sr.disjoint_union(point, first, second)
        assert sr.components(p) == [first, second, point]


def test_components_partition_and_induced():
    rng = random.Random(5)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 7))
        parts = sr.components(p)
        names = sorted(n for c in parts for n in c.elements)
        assert names == sorted(p.elements)
        for c in parts:
            for a in c.elements:
                for b in c.elements:
                    assert c.less(c.index(a), c.index(b)) == p.less(
                        p.index(a), p.index(b)
                    )


def test_subposet_and_masks():
    p = fig3_poset()
    mask = sr.mask_of(p, ["1", "2", "4"])
    sub = sr.subposet(p, mask)
    assert sub.elements == ("1", "2", "4")
    assert sub.less(0, 1) and not sub.less(0, 2) and not sub.less(1, 2)
    assert sr.names_of(p, mask) == ("1", "2", "4")


def test_validator_rejects_non_transitive():
    with pytest.raises(ValueError):
        sr.Poset(("a", "b", "c"), (2, 4, 0))  # a<b, b<c but not a<c


def test_validator_rejects_antisymmetry_violation():
    with pytest.raises(sr.CycleDetected):
        sr.Poset(("a", "b"), (2, 1))


def _pairwise_chain(p, mask):
    idx = [i for i in range(p.n) if (mask >> i) & 1]
    return all(p.less(i, j) or p.less(j, i) for i in idx for j in idx if i != j)


def test_is_chain_mask_matches_pairwise(classes_by_n):
    for classes in classes_by_n.values():
        for p in classes:
            for mask in range(1 << p.n):
                assert is_chain_mask(p, mask) == _pairwise_chain(p, mask)
            assert sr.is_chain_poset(p) == _pairwise_chain(p, (1 << p.n) - 1)


def _longest_chain_from(p, i):
    """Size of the largest chain whose least element is i, over all subsets."""
    return max(
        m.bit_count()
        for m in range(1 << p.n)
        if (m >> i) & 1
        and _pairwise_chain(p, m)
        and all(p.less(i, j) for j in range(p.n) if j != i and (m >> j) & 1)
    )


def test_chain_heights_match_longest_chain(classes_by_n):
    """Upward heights, and downward ones as the upward heights of the dual."""
    for classes in classes_by_n.values():
        for p in classes:
            for q in (p, sr.dual(p)):
                assert chain_heights(q.lt) == [_longest_chain_from(q, i) for i in range(q.n)]


def test_bit_tricks_live_in_the_kernel():
    """The lowest-set-bit idiom belongs to poset.py alone; other modules
    call its helpers."""
    src = Path(sr.__file__).parent
    offenders = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "poset.py" and "& -" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []

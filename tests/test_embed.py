"""Embedding search against the exhaustive oracle, plus pattern detection."""

import gc
import itertools
import random

from hypothesis import given, settings, strategies as st

import subrep as sr
from conftest import embeddings_exhaustive, embeds_exhaustive, fig3_poset, random_poset


def test_wedge_into_fig3_witnesses():
    wedge = sr.pattern_poset(sr.PatternKind.WEDGE)
    p = fig3_poset()
    assert sr.embeds(wedge, p)
    images = {tuple(sorted(m.values())) for m in sr.all_embeddings(wedge, p)}
    assert images == {("1", "3", "4"), ("2", "3", "4")}


def test_chain_into_antichain():
    assert not sr.embeds(sr.chain("ab"), sr.antichain("xy"))


def test_vee_into_diamond():
    vee = sr.pattern_poset(sr.PatternKind.VEE)
    diamond = sr.pattern_poset(sr.PatternKind.DIAMOND)
    assert sr.embeds(vee, diamond)
    assert embeds_exhaustive(vee, diamond)


def test_empty_embeds_vacuously():
    empty = sr.antichain([])
    assert sr.embeds(empty, sr.chain("ab"))
    assert sr.find_embedding(empty, sr.chain("ab")) == {}


def test_find_embedding_least_witness():
    vee = sr.pattern_poset(sr.PatternKind.VEE)
    assert sr.find_embedding(vee, vee) == {"a": "a", "b": "b", "c": "c"}
    assert sr.find_embedding(sr.chain("abc"), fig3_poset()) == {
        "a": "1",
        "b": "2",
        "c": "3",
    }
    diamond = sr.pattern_poset(sr.PatternKind.DIAMOND)
    assert sr.find_embedding(diamond, vee) is None


def test_find_embedding_is_an_embedding():
    rng = random.Random(17)
    for _ in range(80):
        p1 = random_poset(rng, rng.randint(0, 4))
        p2 = random_poset(rng, rng.randint(0, 6))
        mapping = sr.find_embedding(p1, p2)
        assert (mapping is not None) == embeds_exhaustive(p1, p2)
        if mapping is None:
            continue
        assert len(set(mapping.values())) == p1.n
        for a in p1.elements:
            for b in p1.elements:
                assert p1.less(p1.index(a), p1.index(b)) == p2.less(
                    p2.index(mapping[a]), p2.index(mapping[b])
                )


def test_embeds_matches_exhaustive_oracle():
    rng = random.Random(23)
    for _ in range(250):
        p1 = random_poset(rng, rng.randint(0, 5), rng.uniform(0.2, 0.6))
        p2 = random_poset(rng, rng.randint(0, 6), rng.uniform(0.2, 0.6))
        assert sr.embeds(p1, p2) == embeds_exhaustive(p1, p2)


@st.composite
def _shuffled_poset(draw, max_n):
    """Random poset whose element order is a shuffle of a linear extension,
    so index order and the order relation are unrelated."""
    n = draw(st.integers(0, max_n))
    ranked = [f"v{i}" for i in range(n)]
    covers = [(ranked[i], ranked[j]) for i, j in itertools.combinations(range(n), 2)
              if draw(st.booleans())]
    return sr.poset_from_cover(draw(st.permutations(ranked)), covers)


@settings(max_examples=300, deadline=None)
@given(p1=_shuffled_poset(5), p2=_shuffled_poset(7))
def test_search_matches_brute_force_injections(p1, p2):
    """embeds, find_embedding and all_embeddings against every injection,
    tried in lexicographic order of the image tuple."""
    maps = [
        dict(zip(p1.elements, (p2.elements[t] for t in image)))
        for image in embeddings_exhaustive(p1, p2)
    ]
    assert sr.embeds(p1, p2) == bool(maps)
    assert sr.find_embedding(p1, p2) == (maps[0] if maps else None)
    assert sr.all_embeddings(p1, p2) == maps


def test_embeds_reflexive_transitive():
    rng = random.Random(29)
    posets = [random_poset(rng, rng.randint(1, 5)) for _ in range(12)]
    for p in posets:
        assert sr.embeds(p, p)
    for a in posets:
        for b in posets:
            for c in posets:
                if sr.embeds(a, b) and sr.embeds(b, c):
                    assert sr.embeds(a, c)


def test_mutual_embedding_of_equal_size_is_isomorphism():
    rng = random.Random(31)
    for _ in range(150):
        a = random_poset(rng, rng.randint(1, 5))
        b = random_poset(rng, a.n)
        if sr.embeds(a, b) and sr.embeds(b, a):
            assert sr.canonical_code(a) == sr.canonical_code(b)


def test_isomorphic_embeds_both_ways():
    a = sr.poset_from_cover("abc", [("a", "b"), ("a", "c")])
    b = sr.poset_from_cover("uvw", [("w", "u"), ("w", "v")])
    assert sr.canonical_code(a) == sr.canonical_code(b)
    assert sr.embeds(a, b) and sr.embeds(b, a)


def test_contains_pattern_examples():
    diamond = sr.pattern_poset(sr.PatternKind.DIAMOND)
    assert sr.contains_pattern(diamond, sr.PatternKind.VEE)
    assert sr.contains_pattern(diamond, sr.PatternKind.WEDGE)
    assert not sr.contains_pattern(fig3_poset(), sr.PatternKind.DIAMOND)
    assert not sr.contains_pattern(sr.chain("abcdef"), sr.PatternKind.VEE)
    assert sr.contains_pattern(fig3_poset(), sr.PatternKind.TWO_CHAIN_PLUS_POINT)
    assert not sr.contains_pattern(fig3_poset(), sr.PatternKind.VEE)


def test_obstructions_are_seven_distinct_four_point_posets():
    kinds = sr.obstruction_patterns()
    assert len(kinds) == 7
    codes = {sr.canonical_code(sr.pattern_poset(k)) for k in kinds}
    assert len(codes) == 7
    assert all(sr.pattern_poset(k).n == 4 for k in kinds)
    assert sr.PatternKind.DIAMOND in kinds
    pinned = [sr.canonical_code(sr.pattern_poset(k)) for k in kinds]
    assert pinned == sorted(pinned)


def test_searches_leave_no_cyclic_garbage():
    """The recursive searches free their closures by reference counting, so
    with the cyclic collector off nothing is left for it to find."""
    wedge = sr.pattern_poset(sr.PatternKind.WEDGE)
    host = fig3_poset()
    negative = sr.poset_from_cover("abcdef", [("a", "b"), ("a", "c"), ("d", "e")])
    board = sr.SimplePinboard(sr.Card.aleph(0), 3, 2, sr.Card.aleph(0))
    small, big = (
        sr.pinboard_poset(sr.normalize_subset([(sr.fin(h), sr.Card.fin(1)), (sr.fin(2), sr.Card.fin(f))], board))
        for h, f in ((3, 2), (4, 3))
    )
    calls = [
        lambda: sr.find_embedding(wedge, host),
        lambda: sr.embeds(small, big),
        lambda: sr.all_embeddings(wedge, host),
        lambda: sr.classify_finite(negative),
        lambda: sr.oracle_subrep(host),
    ]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(200):
                call()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()

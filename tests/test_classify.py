"""Flower/co-flower/chain-union detectors and the full classifier."""

import random

import pytest

import subrep as sr
from subrep.ordinal import Card, fin, omega
from conftest import (
    classify_reference,
    fig1_poset,
    fig3_poset,
    near_miss,
    random_poset,
    random_positive_poset,
    relabel,
)


def test_is_flower_examples():
    assert sr.is_flower(fig1_poset()) == "2"
    claw_up = sr.poset_from_cover("rstu", [("r", "s"), ("r", "t"), ("r", "u")])
    assert sr.is_flower(claw_up) == "r"
    assert sr.is_flower(sr.pattern_poset(sr.PatternKind.DIAMOND)) is None


def test_is_coflower_examples():
    wedge_tail = sr.poset_from_cover(
        "abcd", [("a", "c"), ("b", "c"), ("c", "d")]
    )
    assert sr.is_coflower(wedge_tail) == "c"
    assert sr.is_coflower(sr.pattern_poset(sr.PatternKind.VEE)) is None
    assert sr.is_coflower(sr.antichain("xy")) is None


def test_union_of_chains_examples():
    p = sr.disjoint_union(sr.chain(["a", "b", "c"]), sr.antichain(["z"]))
    chains = sr.is_union_of_chains(p)
    assert [c.elements for c in chains] == [("a", "b", "c"), ("z",)]
    assert len(sr.is_union_of_chains(sr.antichain("wxyz"))) == 4
    assert sr.is_union_of_chains(sr.pattern_poset(sr.PatternKind.VEE)) is None


def test_classify_finite_examples():
    v = sr.classify_finite(fig3_poset())
    assert not v.sub_representable
    assert v.kind == sr.VerdictKind.NOT_SUB_REPRESENTABLE
    assert v.witness is not None and sr.recheck_witness(fig3_poset(), v.witness)

    d = sr.classify_finite(sr.pattern_poset(sr.PatternKind.DIAMOND))
    assert not d.sub_representable
    assert d.witness.patterns[0].kind == sr.PatternKind.DIAMOND

    c4 = sr.classify_finite(sr.chain("abcd"))
    assert c4.sub_representable and c4.kind == sr.VerdictKind.UNION_OF_CHAINS

    with pytest.raises(sr.EmptyPoset):
        sr.classify_finite(sr.antichain([]))


def test_witness_priority_diamond_then_vee_wedge():
    crown_plus = sr.poset_from_cover(
        "abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    v = sr.classify_finite(crown_plus)
    kinds = [m.kind for m in v.witness.patterns]
    assert kinds == [sr.PatternKind.VEE, sr.PatternKind.WEDGE]

    with_diamond = sr.poset_from_cover(
        "abcde", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]
    )
    v = sr.classify_finite(with_diamond)
    assert [m.kind for m in v.witness.patterns] == [sr.PatternKind.DIAMOND]


def test_negative_witnesses_recheck():
    rng = random.Random(101)
    seen = 0
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 6))
        v = sr.classify_finite(p)
        if not v.sub_representable:
            seen += 1
            assert v.witness is not None
            assert sr.recheck_witness(p, v.witness)
    assert seen > 20


def test_flower_coflower_duality():
    rng = random.Random(55)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 6))
        assert (sr.is_flower(p) is None) == (sr.is_coflower(sr.dual(p)) is None)


def test_every_flower_has_vee_every_coflower_has_wedge(classes_by_n):
    seen_flowers = 0
    for n, classes in classes_by_n.items():
        for p in classes:
            if sr.is_flower(p) is not None:
                seen_flowers += 1
                assert sr.contains_pattern(p, sr.PatternKind.VEE)
            if sr.is_coflower(p) is not None:
                assert sr.contains_pattern(p, sr.PatternKind.WEDGE)
    # six-element flowers, built directly
    for stem in range(0, 4):
        tops = 5 - stem
        names = [f"s{i}" for i in range(stem)] + ["c"] + [f"t{i}" for i in range(tops)]
        covers = [(f"s{i}", f"s{i+1}") for i in range(stem - 1)]
        if stem:
            covers.append((f"s{stem-1}", "c"))
        covers += [("c", f"t{i}") for i in range(tops)]
        p = sr.poset_from_cover(names, covers)
        assert sr.is_flower(p) == "c"
        assert sr.contains_pattern(p, sr.PatternKind.VEE)
        assert sr.contains_pattern(sr.dual(p), sr.PatternKind.WEDGE)
        seen_flowers += 1
    assert seen_flowers > 8


def test_classify_chain():
    assert not sr.classify_chain(sr.INTEGERS).sub_representable
    assert not sr.classify_chain(sr.RATIONALS).sub_representable
    assert not sr.classify_chain(sr.REALS).sub_representable
    assert not sr.classify_chain(sr.IRRATIONALS).sub_representable
    assert sr.classify_chain(sr.ChainDescriptor.well_ordered(omega(0))).sub_representable
    assert sr.classify_chain(
        sr.ChainDescriptor.well_ordered_star(omega(0))
    ).sub_representable
    assert sr.classify_chain(sr.ChainDescriptor.finite(9)).sub_representable
    neither = sr.classify_chain(sr.ChainDescriptor.neither("custom"))
    assert neither.witness.reason is not None


def test_classify_descriptor():
    board = sr.pinboard(
        [
            (omega(2), Card.fin(5)),
            (omega(1), Card.fin(2)),
            (fin(6), Card.aleph(0)),
            (fin(3), Card.fin(1)),
        ]
    )
    v = sr.classify_descriptor(sr.PosetDescriptor.pinboard_poset(board))
    assert v.sub_representable and v.kind == sr.VerdictKind.PINBOARD_POSET

    v = sr.classify_descriptor(
        sr.PosetDescriptor.flower(omega(0), Card.aleph(0))
    )
    assert v.sub_representable and v.kind == sr.VerdictKind.FLOWER

    v = sr.classify_descriptor(
        sr.PosetDescriptor.co_flower(omega(1), Card.fin(2))
    )
    assert v.sub_representable and v.kind == sr.VerdictKind.CO_FLOWER

    v = sr.classify_descriptor(
        sr.PosetDescriptor.finite(sr.pattern_poset(sr.PatternKind.DIAMOND))
    )
    assert not v.sub_representable

    v = sr.classify_descriptor(sr.PosetDescriptor.co_pinboard_poset(sr.co_dual(board)))
    assert v.sub_representable and v.kind == sr.VerdictKind.CO_PINBOARD_POSET

    v = sr.classify_descriptor(sr.PosetDescriptor.of_chain(sr.INTEGERS))
    assert not v.sub_representable
    assert v.witness.reason == (
        "chain Z contains both an increasing and a decreasing copy of the naturals"
    )

    v = sr.classify_descriptor(
        sr.PosetDescriptor.of_chain(sr.ChainDescriptor.well_ordered(omega(1)))
    )
    assert v.sub_representable and v.kind == sr.VerdictKind.PINBOARD_POSET


def _finite_flower(stem: int, width: int) -> sr.Poset:
    """A chain of ``stem`` points below a center, ``width`` points above it."""
    below = [f"s{i}" for i in range(stem)] + ["c"]
    tops = [f"t{i}" for i in range(width)]
    covers = list(zip(below, below[1:])) + [("c", t) for t in tops]
    return sr.poset_from_cover(below + tops, covers)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_descriptors_on_finite_parameters():
    """The fixed positive verdicts of ``classify_descriptor`` hold on every
    finite instance: the classifier finds the same kind, ``build_g``'s
    table verifies, and on small instances the oracle finds a map too."""
    built = []
    for stem in range(5):
        for width in range(2, 5):
            p = _finite_flower(stem, width)
            stem_type, cardinal = fin(stem), Card.fin(width)
            for poset, descriptor in (
                (p, sr.PosetDescriptor.flower(stem_type, cardinal)),
                (sr.dual(p), sr.PosetDescriptor.co_flower(stem_type, cardinal)),
            ):
                kind = sr.classify_descriptor(descriptor).kind
                assert sr.classify_finite(poset).kind == kind
                built.append(poset)
    for n in range(1, 9):
        for lengths in _partitions(n, n):
            board = sr.pinboard([(fin(h), Card.fin(1)) for h in lengths])
            p = sr.pinboard_poset(board)
            assert p.n == n
            for poset in (p, sr.dual(p)):
                assert sr.classify_finite(poset).kind == sr.VerdictKind.UNION_OF_CHAINS
            for descriptor in (
                sr.PosetDescriptor.pinboard_poset(board),
                sr.PosetDescriptor.co_pinboard_poset(sr.co_dual(board)),
            ):
                assert sr.classify_descriptor(descriptor).sub_representable
            built.append(p)
    assert len(built) == 30 + 66  # 66 partitions of the sizes 1 ... 8
    for p in built:
        if p.n <= 8:
            assert sr.verify_subrep(p, sr.build_g(p)) == []
        if p.n <= 6:
            assert sr.oracle_subrep(p) is not None


def test_descriptor_validation():
    with pytest.raises(sr.InvalidDescriptor):
        sr.PosetDescriptor.flower(omega(0), Card.fin(1))  # width below 2
    with pytest.raises(sr.InvalidDescriptor):
        sr.ChainDescriptor.finite(0)
    with pytest.raises(sr.InvalidDescriptor):
        sr.ChainDescriptor("well_ordered", None)
    with pytest.raises(sr.InvalidDescriptor):
        sr.PosetDescriptor("finite")
    board = sr.pinboard([(omega(1), Card.fin(2)), (fin(3), Card.aleph(0))])
    with pytest.raises(sr.InvalidDescriptor):
        sr.PosetDescriptor.pinboard_poset(sr.co_dual(board))
    with pytest.raises(sr.InvalidDescriptor):
        sr.PosetDescriptor.co_pinboard_poset(board)


def test_finite_union_matches_pinboard_encoding():
    """A finite chain-union poset and its pinboard encoding get the same
    sub-representability verdict."""
    p = sr.disjoint_union(
        sr.chain(["a", "b", "c"]), sr.chain(["d", "e"]), sr.antichain(["f"])
    )
    fin_verdict = sr.classify_finite(p)
    board = sr.pinboard(
        [(fin(3), Card.fin(1)), (fin(2), Card.fin(1)), (fin(1), Card.fin(1))]
    )
    pin_verdict = sr.classify_descriptor(sr.PosetDescriptor.pinboard_poset(board))
    assert fin_verdict.sub_representable == pin_verdict.sub_representable is True
    expanded = sr.classify_finite(sr.pinboard_poset(board))
    assert expanded.sub_representable


def test_classifier_matches_oracle_small(classes_by_n, oracle_verdicts):
    for n in (1, 2, 3):
        for p in classes_by_n[n]:
            assert (
                sr.classify_finite(p).sub_representable
                == oracle_verdicts[sr.canonical_code(p)]
            )


def test_verdict_as_dict_round_trip():
    v = sr.classify_finite(fig1_poset())
    d = v.as_dict()
    assert d["kind"] == "flower"
    assert d["subRepresentable"] is True
    assert d["witness"] == {"center": "2"}


def test_classifier_matches_reference_on_small_classes(classes_by_n):
    """Every class with n <= 5, under three relabelings each: the verdict,
    and the witness with its names in order, equal the reference built
    from component subposets and the dual."""
    rng = random.Random(1601)
    for classes in classes_by_n.values():
        for p in classes:
            for _ in range(3):
                q = relabel(p, rng)
                assert sr.classify_finite(q).as_dict() == classify_reference(q)


def test_classifier_matches_reference_on_larger_posets():
    """200 seeded posets with 11-16 points: unions of chains, flowers and
    co-flowers, and the same with one point or one relation planted."""
    rng = random.Random(1602)
    kinds = set()
    for k in range(200):
        n = rng.randint(11, 16)
        p = random_positive_poset(rng, n) if k % 2 else near_miss(rng, n)
        got = sr.classify_finite(p).as_dict()
        assert got == classify_reference(p)
        kinds.add(got["kind"])
    assert kinds == {"unionOfChains", "flower", "coFlower", "notSubRepresentable"}


def test_classification_builds_no_subposets(classes_by_n, monkeypatch):
    """The classifier reads the parsed poset's rows and component masks:
    it builds no subposet, no dual and no other Poset."""
    for kind in sr.PatternKind:
        sr.pattern_poset(kind)  # cached, so built once before the guard
    rng = random.Random(1603)
    posets = [p for classes in classes_by_n.values() for p in classes]
    posets += [near_miss(rng, rng.randint(3, 14)) for _ in range(60)]

    def refuse(*args):
        raise AssertionError("derived poset built")

    for target in ("subrep.poset.subposet", "subrep.poset.dual", "subrep.classify.subposet"):
        monkeypatch.setattr(target, refuse)
    monkeypatch.setattr(sr.Poset, "__post_init__", refuse)
    for p in posets:
        sr.classify_finite(p)


def test_obstructions_decide_near_misses():
    """Near misses with 30-60 points: no embedding of any of the seven
    four-point obstructions exactly when the classifier says
    sub-representable."""
    rng = random.Random(1604)
    obstructions = [sr.pattern_poset(k) for k in sr.obstruction_patterns()]
    verdicts = []
    for _ in range(60):
        p = near_miss(rng, rng.randint(30, 60))
        clean = not any(sr.embeds(o, p) for o in obstructions)
        verdict = sr.classify_finite(p).sub_representable
        assert clean == verdict
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)

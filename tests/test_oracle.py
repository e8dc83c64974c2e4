"""The first-principles oracle, enumeration up to isomorphism, and survey."""

import random

import pytest

import subrep as sr
from conftest import (
    embeds_exhaustive,
    enumerate_by_relations,
    fig3_poset,
    random_poset,
    random_positive_poset,
)


def test_oracle_examples():
    assert sr.oracle_subrep(sr.pattern_poset(sr.PatternKind.DIAMOND)) is None
    assert sr.oracle_subrep(fig3_poset()) is None
    vee_map = sr.oracle_subrep(sr.pattern_poset(sr.PatternKind.VEE))
    assert vee_map is not None
    assert sr.verify_subrep(sr.pattern_poset(sr.PatternKind.VEE), vee_map) == []


def test_oracle_guard():
    with pytest.raises(sr.TooLarge, match="oracle is limited to 10 elements, got 11"):
        sr.oracle_subrep(sr.antichain([f"x{i}" for i in range(11)]))
    assert sr.oracle_subrep(sr.antichain([f"x{i}" for i in range(7)]))


@pytest.fixture(scope="module")
def survey6():
    return sr.survey(6)


def test_enumerate_counts(survey6):
    assert len(sr.enumerate_posets(1)) == 1
    assert len(sr.enumerate_posets(2)) == 2
    assert len(sr.enumerate_posets(3)) == 5
    assert len(sr.enumerate_posets(4)) == 16
    assert len(sr.enumerate_posets(5)) == 63
    assert len(survey6) == 318  # OEIS A000112
    with pytest.raises(sr.TooLarge, match="enumeration is limited to 6 elements, got 7"):
        sr.enumerate_posets(7)


def test_enumeration_matches_relation_scan():
    for n in range(1, 6):
        classes = sr.enumerate_posets(n)
        assert [sr.canonical_code(p) for p in classes] == enumerate_by_relations(n)
        for p in classes:
            assert p.elements == tuple(f"x{i}" for i in range(n))
            # naturally labeled: x_i < x_j only if i < j
            assert not any(p.less(j, i) for i in range(n) for j in range(i + 1, n))


def test_enumerate_codes_distinct_and_sorted():
    classes = sr.enumerate_posets(4)
    codes = [sr.canonical_code(p) for p in classes]
    assert len(set(codes)) == 16
    assert codes == sorted(codes)


def test_enumeration_is_exhaustive_n3():
    rng = random.Random(9)
    codes = {sr.canonical_code(p) for p in sr.enumerate_posets(3)}
    for _ in range(100):
        p = random_poset(rng, 3, rng.random())
        assert sr.canonical_code(p) in codes


def test_survey_n2_all_positive():
    rows = sr.survey(2)
    assert len(rows) == 2
    assert all(r.verdict.sub_representable and r.oracle_positive for r in rows)


def test_survey_n4_counts():
    rows = sr.survey(4)
    assert len(rows) == 16
    assert sum(not r.verdict.sub_representable for r in rows) == 7
    assert sum(r.verdict.sub_representable for r in rows) == 9
    assert all(r.agree for r in rows)


def test_survey_n6_all_agree(survey6):
    assert [r.code for r in survey6] == sorted({r.code for r in survey6})
    assert all(r.agree for r in survey6)
    assert sum(r.oracle_positive for r in survey6) == 19


def test_obstructions_decide_every_class(survey6, classes_by_n, oracle_verdicts):
    """All 405 classes with n <= 6: no embedding of any of the seven
    four-point obstructions exactly when the oracle finds a map."""
    obstructions = [sr.pattern_poset(k) for k in sr.obstruction_patterns()]

    def clean(p):
        return not any(sr.embeds(o, p) for o in obstructions)

    pairs = [(clean(r.poset), r.oracle_positive) for r in survey6]
    pairs += [
        (clean(p), oracle_verdicts[sr.canonical_code(p)])
        for classes in classes_by_n.values()
        for p in classes
    ]
    assert len(pairs) == 405
    assert all(mine == oracle for mine, oracle in pairs)


def test_mutual_embeds_equal_size_forces_isomorphism():
    """The forced shape of any witnessing table on finite posets."""
    rng = random.Random(404)
    for _ in range(120):
        p = random_poset(rng, rng.randint(2, 6))
        masks = rng.sample(range(1, 1 << p.n), k=min(6, (1 << p.n) - 1))
        subs = [sr.subposet(p, m) for m in masks]
        for a in subs:
            for b in subs:
                if a.n == b.n and sr.embeds(a, b) and sr.embeds(b, a):
                    assert sr.canonical_code(a) == sr.canonical_code(b)
                    assert embeds_exhaustive(a, b)


def test_oracle_agrees_with_classifier_n_le_4(classes_by_n, oracle_verdicts):
    for n in (1, 2, 3, 4):
        for p in classes_by_n[n]:
            assert (
                oracle_verdicts[sr.canonical_code(p)]
                == sr.classify_finite(p).sub_representable
            )


def test_oracle_agrees_with_classifier_random_n6():
    rng = random.Random(555)
    for _ in range(30):
        p = random_poset(rng, 6, rng.uniform(0.15, 0.6))
        assert (sr.oracle_subrep(p) is not None) == sr.classify_finite(
            p
        ).sub_representable
    for _ in range(10):
        p = random_positive_poset(rng, 6)
        witness = sr.oracle_subrep(p)
        assert witness is not None
        assert sr.verify_subrep(p, witness) == []


def test_oracle_agrees_with_classifier_n7_n8():
    rng = random.Random(778)
    for n, count in ((7, 10), (8, 2)):
        cases = [random_poset(rng, n, rng.uniform(0.1, 0.5)) for _ in range(count)]
        for p in cases + [random_positive_poset(rng, n)]:
            witness = sr.oracle_subrep(p)
            assert (witness is not None) == sr.classify_finite(p).sub_representable
            if witness is not None:
                assert sr.verify_subrep(p, witness) == []


def test_vee_wedge_classes_fail_oracle(classes_by_n, oracle_verdicts):
    for n in (3, 4):
        for p in classes_by_n[n]:
            if sr.contains_pattern(p, sr.PatternKind.VEE) and sr.contains_pattern(
                p, sr.PatternKind.WEDGE
            ):
                assert not oracle_verdicts[sr.canonical_code(p)]

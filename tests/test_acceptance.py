"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random

import pytest

import subrep as sr
from subrep.ordinal import Card, ZERO, fin, omega
from conftest import criterion8_instance, fig1_poset, random_positive_poset


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def survey_rows():
    return {n: sr.survey(n) for n in (4, 5)}


def test_criterion_1_figure1_reproduction():
    p = fig1_poset()
    g = sr.build_g(p)

    def image(names):
        return set(g.image_names(sr.mask_of(p, names)))

    expected = [
        (["1"], {"3"}),
        (["1", "2"], {"2", "3"}),
        (["1", "2", "3"], {"1", "2", "3"}),
        (["3", "4"], {"3", "4"}),
        (["2", "3", "4"], {"2", "3", "4"}),
        (["1", "2", "3", "4"], {"1", "2", "3", "4"}),
    ]
    ok = all(image(sub) == img for sub, img in expected)
    ok = ok and sr.verify_subrep(p, g) == []
    report(1, "figure-1 reproduction", ok)
    assert ok


def test_criterion_2_four_point_survey(survey_rows):
    rows = survey_rows[4]
    negatives = {r.code for r in rows if not r.verdict.sub_representable}
    obstruction_codes = {
        sr.canonical_code(sr.pattern_poset(k)) for k in sr.obstruction_patterns()
    }
    positive_count = sum(r.verdict.sub_representable for r in rows)
    ok = (
        len(rows) == 16
        and all(r.agree for r in rows)
        and negatives == obstruction_codes
        and len(negatives) == 7
        and positive_count == 9
    )
    report(2, "four-point survey: 16 classes, 7 negative, 9 positive", ok)
    assert ok


def test_criterion_3_five_point_agreement(survey_rows):
    rows = survey_rows[5]
    ok = len(rows) == 63 and all(r.agree for r in rows)
    report(3, "five-point survey: 63 classes, zero disagreements", ok)
    assert ok


def test_criterion_4_heredity(oracle_verdicts):
    ok = True
    for n in range(1, 6):
        for p in sr.enumerate_posets(n):
            if not oracle_verdicts[sr.canonical_code(p)]:
                continue
            # positive posets must have only positive subsets
            for mask in range(1, 1 << p.n):
                code = sr.canonical_code(sr.subposet(p, mask))
                if not oracle_verdicts[code]:
                    ok = False
    report(4, "heredity over all n<=5 classes and subsets", ok)
    assert ok


def test_criterion_5_vee_wedge_and_diamond_theorems(oracle_verdicts):
    ok = True
    for n in range(1, 6):
        for p in sr.enumerate_posets(n):
            blocked = sr.contains_pattern(p, sr.PatternKind.DIAMOND) or (
                sr.contains_pattern(p, sr.PatternKind.VEE)
                and sr.contains_pattern(p, sr.PatternKind.WEDGE)
            )
            if blocked and oracle_verdicts[sr.canonical_code(p)]:
                ok = False
    report(5, "vee+wedge and diamond imply oracle-negative", ok)
    assert ok


def test_criterion_6_constructed_g_validity():
    ok = True
    for n in range(1, 6):
        for p in sr.enumerate_posets(n):
            if sr.classify_finite(p).sub_representable:
                ok = ok and sr.verify_subrep(p, sr.build_g(p)) == []
    rng = random.Random(20260810)
    for _ in range(50):
        p = random_positive_poset(rng, 6)
        ok = ok and sr.verify_subrep(p, sr.build_g(p)) == []
    report(6, "constructed g verifies for all n<=5 and 50 random n=6", ok)
    assert ok


def test_criterion_7_section2_golden_example():
    host = sr.SimplePinboard(Card.aleph(2), 12, 7, Card.aleph(3))
    y = sr.normalize_subset(
        [
            (sr.ord_sum(omega(1), fin(1)), Card.fin(1)),
            (omega(1), Card.fin(1)),
            (sr.ord_sum(omega(0), fin(5)), Card.fin(2)),
            (omega(0), Card.fin(1)),
            (fin(30), Card.fin(2)),
            (fin(20), Card.fin(1)),
            (fin(5), Card.aleph(0)),
            (fin(3), Card.aleph(0)),
        ],
        host,
    )
    y2 = sr.normalize_subset(
        [
            (omega(2), Card.fin(2)),
            (sr.ord_sum(omega(1), fin(10)), Card.fin(1)),
            (omega(1), Card.fin(1)),
            (omega(0), Card.fin(1)),
            (fin(60), Card.fin(1)),
            (fin(40), Card.fin(1)),
            (fin(30), Card.fin(1)),
            (fin(20), Card.fin(1)),
            (fin(6), Card.aleph(1)),
        ],
        host,
    )
    ty, ty2 = sr.theta(host, y), sr.theta(host, y2)
    runs_y = (
        (Card.fin(1), sr.ord_sum(omega(1), fin(1))),
        (Card.fin(1), omega(1)),
        (Card.fin(2), sr.ord_sum(omega(0), fin(5))),
        (Card.fin(1), omega(0)),
        (Card.fin(2), fin(30)),
        (Card.fin(1), fin(20)),
        (Card.aleph(0), fin(5)),
    )
    runs_y2 = (
        (Card.fin(2), omega(2)),
        (Card.fin(1), sr.ord_sum(omega(1), fin(10))),
        (Card.fin(1), omega(1)),
        (Card.fin(1), omega(0)),
        (Card.fin(1), fin(60)),
        (Card.fin(1), fin(40)),
        (Card.fin(1), fin(30)),
        (Card.fin(1), fin(20)),
        (Card.aleph(1), fin(6)),
    )
    ok = (
        ty.runs == runs_y
        and ty2.runs == runs_y2
        and sr.theta_subset(ty, ty2)
        and not sr.theta_subset(ty2, ty)
        and sr.pin_embeds(y, y2)
    )
    report(7, "published theta case tables reproduced exactly", ok)
    assert ok


def test_criterion_8_theta_theorem_finite_scale():
    rng = random.Random(314159)
    done = 0
    failures = 0
    while done < 1000:
        host, raw1, raw2 = criterion8_instance(rng)
        if raw1 is None or raw2 is None:
            continue
        y1 = sr.normalize_subset(raw1, host)
        y2 = sr.normalize_subset(raw2, host)
        done += 1
        quick = sr.pin_embeds(y1, y2)
        table = sr.theta_subset(sr.theta(host, y1), sr.theta(host, y2))
        brute = sr.embeds(sr.pinboard_poset(y1), sr.pinboard_poset(y2))
        if not (quick == table == brute):
            failures += 1
    ok = failures == 0
    report(8, "1000 finite instances: pin_embeds = theta_subset = brute force", ok)
    assert ok


def test_criterion_9_ordinal_kernel_properties():
    rng = random.Random(271828)

    def rand_ord():
        total = ZERO
        for _ in range(rng.randint(0, 3)):
            total = sr.ord_sum(total, omega(rng.randint(0, 3), rng.randint(1, 5)))
        return sr.ord_sum(total, fin(rng.randint(0, 40)))

    failures = 0
    for _ in range(10_000):
        a, b, c = rand_ord(), rand_ord(), rand_ord()
        if sr.ord_sum(sr.ord_sum(a, b), c) != sr.ord_sum(a, sr.ord_sum(b, c)):
            failures += 1
        if sr.OrdinalExpr(a.terms, a.tail) != a:  # normal form is stable
            failures += 1
        if sr.ord_cmp(b, c) < 0 and sr.ord_cmp(
            sr.ord_sum(a, b), sr.ord_sum(a, c)
        ) >= 0:
            failures += 1
        if sr.ord_cmp(a, b) != -sr.ord_cmp(b, a):
            failures += 1
        if sr.ord_cmp(a, b) == 0 and a != b:
            failures += 1
        if (
            sr.ord_cmp(a, b) < 0
            and sr.ord_cmp(b, c) < 0
            and sr.ord_cmp(a, c) >= 0
        ):
            failures += 1
    absorption = (
        sr.ord_sum(fin(5), omega(0)) == omega(0)
        and sr.ord_sum(fin(12), omega(2)) == omega(2)
        and sr.ord_sum(omega(0), omega(1)) == omega(1)
    )
    ok = failures == 0 and absorption
    report(9, "10000 ordinal triples: kernel laws and absorption", ok)
    assert ok


def test_criterion_10_symbolic_verdicts():
    negatives = [sr.INTEGERS, sr.RATIONALS, sr.REALS, sr.IRRATIONALS]
    ok = all(not sr.classify_chain(d).sub_representable for d in negatives)

    positives = [
        sr.ChainDescriptor.well_ordered(omega(0)),
        sr.ChainDescriptor.well_ordered_star(omega(0)),
    ]
    ok = ok and all(sr.classify_chain(d).sub_representable for d in positives)

    board = sr.pinboard(
        [
            (omega(2), Card.fin(5)),
            (omega(1), Card.fin(2)),
            (fin(6), Card.aleph(0)),
            (fin(3), Card.fin(1)),
        ]
    )
    descriptors = [
        sr.PosetDescriptor.flower(omega(0), Card.aleph(0)),
        sr.PosetDescriptor.co_flower(omega(1), Card.fin(2)),
        sr.PosetDescriptor.pinboard_poset(board),
        sr.PosetDescriptor.co_pinboard_poset(sr.co_dual(board)),
    ]
    ok = ok and all(
        sr.classify_descriptor(d).sub_representable for d in descriptors
    )
    report(10, "symbolic verdicts match the characterization", ok)
    assert ok

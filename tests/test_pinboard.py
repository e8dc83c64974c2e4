"""Pinboards, subset normalization, theta tables, and the embed criteria."""

import itertools
import random

import pytest

import subrep as sr
from subrep import cli
from subrep.ordinal import Card, fin, omega
from conftest import (
    criterion8_instance,
    pin_embeds_rescan,
    pinboard_poset_by_covers,
    theta_subset_rescan,
)


HOST = sr.SimplePinboard(Card.aleph(2), 12, 7, Card.aleph(3))

Y_RAW = [
    (sr.ord_sum(omega(1), fin(1)), Card.fin(1)),
    (omega(1), Card.fin(1)),
    (sr.ord_sum(omega(0), fin(5)), Card.fin(2)),
    (omega(0), Card.fin(1)),
    (fin(30), Card.fin(2)),
    (fin(20), Card.fin(1)),
    (fin(5), Card.aleph(0)),
    (fin(3), Card.aleph(0)),
]

Y2_RAW = [
    (omega(2), Card.fin(2)),
    (sr.ord_sum(omega(1), fin(10)), Card.fin(1)),
    (omega(1), Card.fin(1)),
    (omega(0), Card.fin(1)),
    (fin(60), Card.fin(1)),
    (fin(40), Card.fin(1)),
    (fin(30), Card.fin(1)),
    (fin(20), Card.fin(1)),
    (fin(6), Card.aleph(1)),
]


def test_pinboard_construction_merges_and_validates():
    pb = sr.pinboard([(fin(7), Card.fin(2)), (fin(7), Card.fin(3))])
    assert pb.pairs == ((fin(7), Card.fin(5)),)
    with pytest.raises(sr.InvalidPinboard):
        sr.pinboard([(omega(0), Card.aleph(0))])  # both infinite
    with pytest.raises(sr.InvalidPinboard):
        sr.pinboard([(sr.ZERO, Card.fin(1))])


def test_pinboard_poset_expansion():
    pb = sr.pinboard([(fin(3), Card.fin(1)), (fin(2), Card.fin(2))])
    p = sr.pinboard_poset(pb)
    chains = sr.is_union_of_chains(p)
    assert chains is not None
    assert sorted(c.n for c in chains) == [2, 2, 3]
    assert p.elements[0] == "c0_0_0"

    assert sr.is_antichain_poset(sr.pinboard_poset(sr.pinboard([(fin(1), Card.fin(4))])))

    slice_pb = sr.pinboard([(fin(6), Card.fin(2)), (fin(3), Card.fin(1))])
    assert sorted(c.n for c in sr.is_union_of_chains(sr.pinboard_poset(slice_pb))) == [3, 6, 6]

    with pytest.raises(sr.InfinitePinboard):
        sr.pinboard_poset(sr.pinboard([(omega(1), Card.fin(1))]))


def test_normalize_drops_absorbed_entry():
    y = sr.normalize_subset(Y_RAW, HOST)
    heights = [h for h, _ in y.pairs]
    assert fin(3) not in heights
    assert heights == sorted(heights, reverse=True)


def test_normalize_merges_equal_heights():
    y = sr.normalize_subset([(fin(7), Card.fin(2)), (fin(7), Card.fin(3))], HOST)
    assert y.pairs == ((fin(7), Card.fin(5)),)


def test_normalize_keeps_lone_infinite_entry():
    y = sr.normalize_subset([(fin(5), Card.aleph(0))], HOST)
    assert y.pairs == ((fin(5), Card.aleph(0)),)


def test_normalize_drops_zero_frequency():
    y = sr.normalize_subset([(fin(5), Card.fin(0)), (fin(3), Card.fin(1))], HOST)
    assert y.pairs == ((fin(3), Card.fin(1)),)


def test_normalize_fit_checks():
    with pytest.raises(sr.DoesNotFit):
        sr.normalize_subset([(omega(2), Card.fin(13))], HOST)  # 13 tall columns > 12
    with pytest.raises(sr.DoesNotFit):
        sr.normalize_subset([(sr.ord_sum(omega(2), fin(1)), Card.fin(1))], HOST)
    small_gamma = sr.SimplePinboard(Card.aleph(2), 12, 7, Card.aleph(0))
    with pytest.raises(sr.DoesNotFit):
        sr.normalize_subset([(fin(5), Card.aleph(1))], small_gamma)


def test_theta_golden_tables():
    y = sr.normalize_subset(Y_RAW, HOST)
    y2 = sr.normalize_subset(Y2_RAW, HOST)
    ty = sr.theta(HOST, y)
    ty2 = sr.theta(HOST, y2)
    assert ty.runs == (
        (Card.fin(1), sr.ord_sum(omega(1), fin(1))),
        (Card.fin(1), omega(1)),
        (Card.fin(2), sr.ord_sum(omega(0), fin(5))),
        (Card.fin(1), omega(0)),
        (Card.fin(2), fin(30)),
        (Card.fin(1), fin(20)),
        (Card.aleph(0), fin(5)),
    )
    assert ty2.runs == (
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
    assert sr.theta_subset(ty, ty2)
    assert not sr.theta_subset(ty2, ty)
    assert sr.theta_subset(ty, ty)
    assert sr.pin_embeds(y, y2)
    assert not sr.pin_embeds(y2, y)


def test_theta_empty_subset():
    y = sr.normalize_subset([], HOST)
    assert sr.theta(HOST, y).runs == ()


def test_run_positions_absorb_finite_offsets():
    y = sr.normalize_subset(Y_RAW, HOST)
    spans = sr.run_positions(sr.theta(HOST, y))
    assert spans[0][:2] == (sr.ZERO, fin(1))
    assert spans[-1][0] == fin(8)
    assert spans[-1][1] == omega(0)  # 8 + w0 collapses to w0


def test_pin_embeds_cardinality_obstruction():
    host = sr.SimplePinboard(Card.aleph(0), 3, 7, Card.aleph(2))
    y = sr.normalize_subset([(fin(5), Card.aleph(1))], host)
    y2 = sr.normalize_subset([(fin(7), Card.aleph(0))], host)
    assert not sr.pin_embeds(y, y2)
    assert sr.pin_embeds(y, y)


def test_host_mismatch_rejected():
    other = sr.SimplePinboard(Card.aleph(2), 11, 7, Card.aleph(3))
    y = sr.normalize_subset([(fin(5), Card.fin(1))], HOST)
    y_other = sr.normalize_subset([(fin(5), Card.fin(1))], other)
    with pytest.raises(sr.HostMismatch):
        sr.pin_embeds(y, y_other)
    with pytest.raises(sr.HostMismatch):
        sr.theta(other, y)
    with pytest.raises(sr.HostMismatch):
        sr.theta_subset(sr.theta(HOST, y), sr.theta(other, y_other))


def test_co_dual_round_trip():
    pb = sr.pinboard([(omega(0), Card.fin(3))])
    co = sr.co_dual(pb)
    assert co.starred and sr.co_dual(co) == pb
    finite = sr.pinboard([(fin(3), Card.fin(1)), (fin(2), Card.fin(2))])
    co_fin = sr.co_dual(finite)
    p, q = sr.pinboard_poset(finite), sr.pinboard_poset(co_fin)
    assert sr.canonical_code(sr.dual(p)) == sr.canonical_code(q)
    # a subset or table flips with its host, and the verdicts stay
    rng = random.Random(5151)
    subsets = [_random_symbolic_subset(rng) for _ in range(20)]
    for y in subsets:
        co_y, co_t = sr.co_dual(y), sr.co_dual(sr.theta(HOST, y))
        assert co_y.host.starred and co_t.host == co_y.host
        assert sr.co_dual(co_y) == y and sr.co_dual(co_t) == sr.theta(HOST, y)
        assert sr.theta(co_y.host, co_y) == co_t
        for y2 in subsets:
            t, t2 = sr.theta(HOST, y), sr.theta(HOST, y2)
            assert sr.pin_embeds(sr.co_dual(y), sr.co_dual(y2)) == sr.pin_embeds(y, y2)
            assert sr.theta_subset(sr.co_dual(t), sr.co_dual(t2)) == sr.theta_subset(t, t2)


def test_co_forms_compare_like_pinboards():
    host = sr.SimplePinboard(Card.aleph(0), 2, 3, Card.aleph(0), starred=True)
    y = sr.normalize_subset([(fin(2), Card.fin(2))], host)
    y2 = sr.normalize_subset([(fin(3), Card.fin(2))], host)
    assert sr.pin_embeds(y, y2)
    assert not sr.pin_embeds(y2, y)
    assert sr.theta_subset(sr.theta(host, y), sr.theta(host, y2))
    # orientation lives on the host, so a subset built on it directly
    # goes through theta, and its runs print starred
    assert sr.theta(host, sr.PinSubset(host, ())).runs == ()
    y3 = sr.PinSubset(host, ((fin(3), Card.fin(2)), (fin(1), Card.aleph(0))))
    assert cli._format_runs(sr.theta(host, y3)) == [
        "  [0, 2)  height 3*  (2 columns)",
        "  [2, w0)  height 1*  (aleph0 columns)",
        "  elsewhere  height 0",
    ]


def _random_finite_instance(rng):
    m = rng.randint(1, 3)
    n = rng.randint(0, 3)
    host = sr.SimplePinboard(Card.aleph(0), n, m, Card.aleph(0))
    beta_bound = rng.randint(m + 1, 6)

    def subset():
        pairs = []
        total = 0
        budget = rng.randint(0, n)
        for h in rng.sample(range(m + 1, beta_bound + 1), k=min(budget, beta_bound - m)):
            f = rng.randint(1, budget)
            if sum(fr.value for _, fr in pairs) + f <= n:
                pairs.append((fin(h), Card.fin(f)))
                total += h * f
        for h in range(1, m + 1):
            f = rng.randint(0, 3)
            if f:
                pairs.append((fin(h), Card.fin(f)))
                total += h * f
        return pairs if total <= 20 else None

    return host, subset(), subset()


def test_three_way_equivalence_finite_scale():
    rng = random.Random(6021)
    done = 0
    while done < 120:
        host, raw1, raw2 = _random_finite_instance(rng)
        if raw1 is None or raw2 is None:
            continue
        y1 = sr.normalize_subset(raw1, host)
        y2 = sr.normalize_subset(raw2, host)
        done += 1
        quick = sr.pin_embeds(y1, y2)
        table = sr.theta_subset(sr.theta(host, y1), sr.theta(host, y2))
        brute = sr.embeds(sr.pinboard_poset(y1), sr.pinboard_poset(y2))
        assert quick == table == brute


def test_normalization_preserves_embeddability_class():
    """An absorbed entry (infinite frequency, dominated by a taller entry
    with frequency at least as large) can be dropped without changing the
    embeddability class: before and after are mutually pin-embeddable."""
    rng = random.Random(77)
    host = sr.SimplePinboard(Card.aleph(2), 6, 5, Card.aleph(3))
    for _ in range(60):
        h_tall = rng.randint(2, 5)
        f_tall = Card.aleph(rng.randint(0, 2))
        h_short = rng.randint(1, h_tall - 1)
        f_short = Card.aleph(rng.randint(0, f_tall.value))
        keep = [(fin(h_tall), f_tall)]
        raw = keep + [(fin(h_short), f_short)]
        after = sr.normalize_subset(raw, host)
        assert after.pairs == tuple(keep)
        # the un-absorbed pair list, built directly to bypass absorption
        before = sr.PinSubset(host, ((fin(h_tall), f_tall), (fin(h_short), f_short)))
        assert sr.pin_embeds(before, after) and sr.pin_embeds(after, before)


def test_finite_entry_absorbed_under_infinite_frequency():
    """Three chains fit inside aleph0 taller chains, so (3,1) goes: the
    subset then embeds into (5,aleph0) by theta as well as by pin_embeds."""
    y = sr.normalize_subset([(fin(5), Card.aleph(0)), (fin(3), Card.fin(1))], HOST)
    assert y.pairs == ((fin(5), Card.aleph(0)),)
    y2 = sr.normalize_subset([(fin(5), Card.aleph(0))], HOST)
    assert sr.pin_embeds(y, y2)
    assert sr.theta_subset(sr.theta(HOST, y), sr.theta(HOST, y2))


def test_absorption_needs_infinite_frequency():
    """With all-finite data nothing is dropped, so the finite-scale
    equivalence tests see normalization as the identity."""
    host = sr.SimplePinboard(Card.aleph(0), 3, 3, Card.aleph(0))
    y = sr.normalize_subset([(fin(3), Card.fin(2)), (fin(1), Card.fin(1))], host)
    assert y.pairs == ((fin(3), Card.fin(2)), (fin(1), Card.fin(1)))


def _random_symbolic_pairs(rng):
    """Random raw (height, frequency) pairs for a subset of HOST, mixing
    infinite and finite data."""
    tall_pool = [
        omega(2),
        sr.ord_sum(omega(1), fin(rng.randint(1, 10))),
        omega(1),
        sr.ord_sum(omega(0), fin(rng.randint(1, 9))),
        omega(0),
        fin(rng.randint(8, 60)),
    ]
    pairs = []
    budget = rng.randint(0, 4)
    for h in rng.sample(tall_pool, k=budget):
        pairs.append((h, Card.fin(rng.randint(1, 12 // max(1, budget)))))
    for h in rng.sample(range(1, 8), k=rng.randint(0, 3)):
        freq = rng.choice([Card.fin(rng.randint(1, 5)), Card.aleph(rng.randint(0, 2))])
        pairs.append((fin(h), freq))
    return pairs


def _random_symbolic_subset(rng):
    """Random normalized subset of HOST mixing infinite and finite data."""
    return sr.normalize_subset(_random_symbolic_pairs(rng), HOST)


def _hall_embeds(pairs_a, pairs_b) -> bool:
    """Embeddability of raw pinboard pairs by Hall's condition, sharing no
    code with ``pinboard.py``. Each chain of ``pairs_a`` must land in its
    own target chain, one at least as tall, and the targets are nested by
    height, so it embeds iff at each height h of ``pairs_a``, ``pairs_b``
    has at least as many chains of height >= h. Cardinals are
    (is_infinite, value) tuples, so aleph_k is (True, k)."""

    def count_from(pairs, h):
        total = (False, 0)
        for height, freq in pairs:
            if height >= h:
                card = (freq.kind == "aleph", freq.value)
                if total[0] or card[0]:
                    total = max(total, card)
                else:
                    total = (False, total[1] + card[1])
        return total

    return all(count_from(pairs_a, h) <= count_from(pairs_b, h) for h, _ in pairs_a)


def test_hall_condition_matches_pin_embeds_and_theta_subset():
    """A third opinion on the raw pairs, before normalization drops the
    absorbed entries, agrees with both decisions on the normalized subsets
    and on their co-forms, and with the per-height rescans that the
    one-pass decisions replaced."""
    rng = random.Random(2718)
    raws = [_random_symbolic_pairs(rng) for _ in range(200)]
    subsets = [sr.normalize_subset(raw, HOST) for raw in raws]
    tables = [sr.theta(HOST, y) for y in subsets]
    forms = list(zip(raws, subsets, tables, map(sr.co_dual, subsets), map(sr.co_dual, tables)))
    for raw, y, t, co_y, co_t in forms:
        for raw2, y2, t2, co_y2, co_t2 in forms:
            hall = _hall_embeds(raw, raw2)
            assert sr.pin_embeds(y, y2) == pin_embeds_rescan(y, y2) == hall, (raw, raw2)
            assert sr.theta_subset(t, t2) == theta_subset_rescan(t, t2) == hall, (raw, raw2)
            assert sr.pin_embeds(co_y, co_y2) == sr.theta_subset(co_t, co_t2) == hall, (raw, raw2)


def test_one_pass_tests_take_equal_heights():
    """Pair lists with every entry doubled have the equal heights that
    normalization never leaves; the one-pass tests give them the verdicts
    of the per-height rescans."""
    rng = random.Random(2718)
    doubled = [
        sr.PinSubset(HOST, tuple(p for p in _random_symbolic_subset(rng).pairs for _ in range(2)))
        for _ in range(60)
    ]
    tables = [sr.theta(HOST, y) for y in doubled]
    for y, t in zip(doubled, tables):
        for y2, t2 in zip(doubled, tables):
            assert sr.pin_embeds(y, y2) == pin_embeds_rescan(y, y2), (y.pairs, y2.pairs)
            assert sr.theta_subset(t, t2) == theta_subset_rescan(t, t2), (t.runs, t2.runs)


def test_hand_built_lists_out_of_height_order_are_refused():
    """The one-pass tests read pairs and runs tallest first, so a list in
    any other order is refused where it is built: on ((1,1),(3,2)) against
    ((3,1),(1,5)) they would answer True where the rescans answer False."""
    host = sr.SimplePinboard(Card.aleph(0), 2, 5, Card.aleph(0))
    y = ((fin(1), Card.fin(1)), (fin(3), Card.fin(2)))
    with pytest.raises(sr.InvalidPinboard, match="decreasing height order"):
        sr.PinSubset(host, y)
    with pytest.raises(sr.InvalidPinboard, match="decreasing height order"):
        sr.ThetaSegments(host, tuple((f, h) for h, f in y))
    # the same pairs tallest first are accepted, and both tests agree
    y = sr.PinSubset(host, y[::-1])
    y2 = sr.PinSubset(host, ((fin(3), Card.fin(1)), (fin(1), Card.fin(5))))
    assert sr.pin_embeds(y, y2) == pin_embeds_rescan(y, y2) is False
    assert sr.theta_subset(sr.theta(host, y), sr.theta(host, y2)) is False


def test_pinboard_poset_matches_cover_closure():
    """The chain rows written directly equal the closure of each chain's
    covers on every subset the criterion-8 generator yields."""
    rng = random.Random(314159)
    seen = 0
    for _ in range(1000):
        host, *raws = criterion8_instance(rng)
        for raw in raws:
            if raw is None:
                continue
            y = sr.normalize_subset(raw, host)
            got, want = sr.pinboard_poset(y), pinboard_poset_by_covers(y)
            assert (got.elements, got.lt) == (want.elements, want.lt), y.pairs
            seen += 1
    assert seen > 1000


def _finite_model(y, stand_ins):
    """The all-finite pinboard of subset y with each aleph_k frequency
    replaced by ``stand_ins[k]``."""
    return sr.pinboard_poset(sr.pinboard(
        [(h, Card.fin(stand_ins[f.value]) if f.is_infinite else f) for h, f in y.pairs]
    ))


def test_pin_embeds_matches_brute_force_on_finite_models():
    """pin_embeds on symbolic subsets equals brute-force embeds on finite
    models, with each aleph_k frequency replaced by a finite stand-in.

    pin_embeds compares, at each height h of y, the number of y's chains
    at least h tall with that of y2, and brute force on all-finite boards
    decides the same comparisons on finite counts (criterion 8). So the
    models keep the verdict if every finite comparison comes out as the
    cardinal one. Let a and b be the finite frequencies of y and y2 added
    up; they bound every finite part of a count. Normalization leaves at
    most one entry per aleph_k, so a count of y whose largest infinite
    term is aleph_k is at most a + src[0] + ... + src[k] and at least
    src[k], and likewise for y2 with tgt and b. An infinite count absorbs
    finite ones (aleph_0 + 2 = aleph_0), which no single finite number
    does, so the source gets the stand-ins src and the target the larger
    tgt, both above every finite count and increasing in k:
    src[k] = b + 1 + tgt[0] + ... + tgt[k-1] beats any count of y2 below
    aleph_k, and tgt[k] = a + src[0] + ... + src[k] covers any count of y
    up to aleph_k. Models stay within the 11 points a side that criterion
    8 searches.
    """
    host = sr.SimplePinboard(Card.aleph(0), 1, 2, Card.aleph(1))
    freqs = [Card.fin(0), Card.fin(1), Card.fin(2), Card.aleph(0), Card.aleph(1)]
    subsets = {}
    for f3, f2, f1 in itertools.product(freqs[:2], freqs, freqs):
        y = sr.normalize_subset([(fin(3), f3), (fin(2), f2), (fin(1), f1)], host)
        subsets[y.pairs] = y
    verdicts = []
    for y, y2 in itertools.product(subsets.values(), repeat=2):
        a = sum(f.value for _, f in y.pairs if not f.is_infinite)
        b = sum(f.value for _, f in y2.pairs if not f.is_infinite)
        src, tgt = [], []
        for _ in range(2):
            src.append(b + 1 + sum(tgt))
            tgt.append(a + sum(src))
        model, model2 = _finite_model(y, src), _finite_model(y2, tgt)
        if model.n > 11 or model2.n > 11:
            continue
        verdict = sr.pin_embeds(y, y2)
        assert sr.embeds(model, model2) == verdict, (y.pairs, y2.pairs)
        verdicts.append(verdict)
    assert len(verdicts) == 826 and 0 < sum(verdicts) < len(verdicts)


def test_theta_subset_matches_pin_embeds_symbolic():
    """theta containment coincides with embeddability on infinite data too,
    and mutually embeddable subsets get identical theta tables."""
    rng = random.Random(4242)
    subsets = [_random_symbolic_subset(rng) for _ in range(200)]
    tables = [sr.theta(HOST, y) for y in subsets]
    for y, t in zip(subsets, tables):
        for y2, t2 in zip(subsets, tables):
            embeds = sr.pin_embeds(y, y2)
            assert sr.theta_subset(t, t2) == embeds, (y.pairs, y2.pairs)
            if embeds and sr.pin_embeds(y2, y):
                assert t.runs == t2.runs


def test_pin_embeds_and_theta_subset_are_preorders():
    rng = random.Random(4242)
    subsets = [_random_symbolic_subset(rng) for _ in range(12)]
    tables = [sr.theta(HOST, y) for y in subsets]
    for y, t in zip(subsets, tables):
        assert sr.pin_embeds(y, y)
        assert sr.theta_subset(t, t)
    for a in range(12):
        for b in range(12):
            for c in range(12):
                if sr.pin_embeds(subsets[a], subsets[b]) and sr.pin_embeds(
                    subsets[b], subsets[c]
                ):
                    assert sr.pin_embeds(subsets[a], subsets[c])
                if sr.theta_subset(tables[a], tables[b]) and sr.theta_subset(
                    tables[b], tables[c]
                ):
                    assert sr.theta_subset(tables[a], tables[c])


def test_mutual_theta_subset_means_equal_tables():
    rng = random.Random(2424)
    tables = [sr.theta(HOST, _random_symbolic_subset(rng)) for _ in range(16)]
    for a in tables:
        for b in tables:
            if sr.theta_subset(a, b) and sr.theta_subset(b, a):
                assert a.runs == b.runs


def _theta_model_table(n, big, m, g):
    """The finite model of the simple host {(beta, n), (m, gamma)} with n
    columns of height ``big`` and g of height m, tallest first, and the
    table sending each subset to the bottoms of the columns that ``theta``
    assigns its traces."""
    host = sr.SimplePinboard(Card.aleph(0), n, m, Card.aleph(0))
    model = sr.pinboard_poset(sr.pinboard([(fin(big), Card.fin(n)), (fin(m), Card.fin(g))]))
    heights = [big] * n + [m] * g
    columns = list(zip(itertools.accumulate(heights[:-1], initial=0), heights))  # (bottom, height)
    table = {}
    for mask in range(1, 1 << model.n):
        traces = [((mask >> base) & ((1 << h) - 1)).bit_count() for base, h in columns]
        y = sr.normalize_subset([(fin(t), Card.fin(1)) for t in traces if t], host)
        free = iter(columns)
        image = 0
        for count, height in sr.theta(host, y).runs:
            for _ in range(count.value):
                image |= ((1 << height.as_finite()) - 1) << next(free)[0]
        table[mask] = image
    return model, table


def test_theta_is_the_finite_construction():
    """On finite models of simple hosts, theta's column assignment is
    build_g's union-of-chains table entry for entry, up to 9 points, and
    verify_subrep accepts it up to 7 (each verify at 8-9 points costs
    0.2-1.8 s)."""
    models = [
        (n, big, m, g)
        for m in range(1, 9) for big in range(m + 1, 10)
        for n in range(1, 9 // big + 1) for g in range(1, (9 - n * big) // m + 1)
    ]
    assert len(models) == 55
    for shape in models:
        model, table = _theta_model_table(*shape)
        assert table == sr.build_g(model).table, shape
        if model.n <= 7:
            assert sr.verify_subrep(model, sr.SubRepMap(model, table)) == [], shape


def test_theta_monotone_finite_scale():
    rng = random.Random(88)
    for _ in range(80):
        m = rng.randint(1, 3)
        host = sr.SimplePinboard(Card.aleph(0), 3, m, Card.aleph(0))
        heights = sorted(rng.sample(range(1, 7), k=rng.randint(1, 3)), reverse=True)
        big = []
        small = []
        tall_used = 0
        for h in heights:
            cap = 3 if h <= m else max(0, 3 - tall_used)
            if cap == 0:
                continue
            f_big = rng.randint(1, cap)
            if h > m:
                tall_used += f_big
            big.append((fin(h), Card.fin(f_big)))
            f_small = rng.randint(1, f_big)
            small.append((fin(h), Card.fin(f_small)))
        yb = sr.normalize_subset(big, host)
        ys = sr.normalize_subset(small, host)
        assert sr.theta_subset(sr.theta(host, ys), sr.theta(host, yb))

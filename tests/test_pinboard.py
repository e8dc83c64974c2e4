"""Pinboards, subset normalization, theta tables, and the embed criteria."""

import random

import pytest

import subrep as sr
from subrep import cli
from subrep.ordinal import Card, fin, omega


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
    absorbed entries, agrees with both decisions on the normalized subsets."""
    rng = random.Random(2718)
    raws = [_random_symbolic_pairs(rng) for _ in range(200)]
    subsets = [sr.normalize_subset(raw, HOST) for raw in raws]
    tables = [sr.theta(HOST, y) for y in subsets]
    for raw, y, t in zip(raws, subsets, tables):
        for raw2, y2, t2 in zip(raws, subsets, tables):
            hall = _hall_embeds(raw, raw2)
            assert sr.pin_embeds(y, y2) == hall, (raw, raw2)
            assert sr.theta_subset(t, t2) == hall, (raw, raw2)


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

"""Witnessing-map construction and the exhaustive verifier."""

import random

import pytest

import subrep as sr
from subrep.construct import subset_classes
from subrep.poset import CANONICAL_MAX
from conftest import embeds_exhaustive, fig1_poset, random_poset, random_positive_poset


def _image(g, names):
    return set(g.image_names(sr.mask_of(g.parent, names)))


def test_fig1_flower_table():
    p = fig1_poset()
    g = sr.build_g(p)
    assert _image(g, ["1"]) == {"3"}
    assert _image(g, ["1", "2"]) == {"2", "3"}
    assert _image(g, ["1", "2", "3"]) == {"1", "2", "3"}
    assert _image(g, ["3", "4"]) == {"3", "4"}
    assert _image(g, ["2", "3", "4"]) == {"2", "3", "4"}
    assert _image(g, ["1", "2", "3", "4"]) == {"1", "2", "3", "4"}
    assert sr.verify_subrep(p, g) == []


def test_chain_union_table():
    p = sr.disjoint_union(sr.chain(["a", "b", "c"]), sr.antichain(["z"]))
    g = sr.build_g(p)
    assert _image(g, ["c", "z"]) == {"a", "z"}
    assert _image(g, ["b"]) == {"a"}
    assert _image(g, ["a", "c"]) == {"a", "b"}
    assert sr.verify_subrep(p, g) == []


def test_two_antichain_singletons():
    p = sr.antichain(["u", "v"])
    g = sr.build_g(p)
    first = g.image_names(sr.mask_of(p, ["u"]))
    assert g.image_names(sr.mask_of(p, ["v"])) == first
    assert len(first) == 1
    assert sr.verify_subrep(p, g) == []


def test_build_g_refuses_negative():
    with pytest.raises(sr.NotSubRepresentable):
        sr.build_g(sr.pattern_poset(sr.PatternKind.DIAMOND))


def test_identity_map_on_chain_violates_inclusion():
    p = sr.chain(["a", "b", "c"])
    identity = sr.SubRepMap(p, {m: m for m in range(1, 8)})
    violations = sr.verify_subrep(p, identity)
    assert violations
    assert any(
        v.condition == "embeds-vs-inclusion"
        and set(v.subset) == {"a"}
        and set(v.other) == {"b"}
        for v in violations
    )


def test_two_chain_to_antichain_violates_equivalence():
    p = sr.disjoint_union(sr.chain(["a", "b"]), sr.antichain(["x", "y"]))
    g = sr.build_g(p)
    table = dict(g.table)
    table[sr.mask_of(p, ["a", "b"])] = sr.mask_of(p, ["x", "y"])
    violations = sr.verify_subrep(p, sr.SubRepMap(p, table))
    assert any(v.condition == "equivalence" for v in violations)


def test_verify_requires_total_map():
    p = sr.chain(["a", "b"])
    with pytest.raises(sr.PartialMap):
        sr.verify_subrep(p, sr.SubRepMap(p, {1: 1}))
    for stray in (0, 8):  # the empty mask, and a mask outside the poset
        with pytest.raises(sr.PartialMap, match="sends 1 subsets outside"):
            sr.verify_subrep(p, sr.SubRepMap(p, {1: 1, 2: 1, 3: stray}))


def test_verify_guard():
    p = sr.antichain([f"x{i}" for i in range(15)])
    with pytest.raises(sr.TooLarge):
        sr.verify_subrep(p, sr.SubRepMap(p, {}))
    p = sr.antichain([f"x{i}" for i in range(CANONICAL_MAX + 1)])
    with pytest.raises(sr.TooLarge, match=f"limited to {CANONICAL_MAX} elements, got 11"):
        sr.verify_subrep(p, sr.SubRepMap(p, {}))


def test_classification_never_labels(classes_by_n, monkeypatch):
    """Canonical labelling is for comparing subsets, not for verdicts."""

    def refuse(p):
        raise AssertionError("canonical labelling called")

    monkeypatch.setattr("subrep.poset._canonical_rows", refuse)
    for classes in classes_by_n.values():
        for p in classes:
            if sr.classify_finite(p).sub_representable:
                sr.build_g(p)


def test_class_matrix_matches_brute_force(classes_by_n):
    """Embeddability read off the subset lattice is the embedding relation
    between the classes' first subsets, and so is the embedding search: three
    independent paths agree on every class pair."""
    rng = random.Random(606)
    posets = [p for classes in classes_by_n.values() for p in classes]
    posets += [random_poset(rng, rng.randint(1, 7)) for _ in range(30)]
    for p in posets:
        classes, cls, can_embed = subset_classes(p)
        reps = [sr.subposet(p, group[0]) for group in classes]
        for i, group in enumerate(classes):
            assert all(cls[mask] == i for mask in group)
            for j, rep in enumerate(reps):
                brute = embeds_exhaustive(reps[i], rep)
                assert can_embed[i][j] == brute
                assert sr.embeds(reps[i], rep) == brute
                assert (sr.find_embedding(reps[i], rep) is not None) == brute


def test_oracle_and_verifier_never_search(classes_by_n, monkeypatch):
    """Neither the oracle nor the verifier runs the embedding search."""
    positives = [
        p
        for classes in classes_by_n.values()
        for p in classes
        if sr.classify_finite(p).sub_representable
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("embedding search called")

    monkeypatch.setattr("subrep.embed._search", refuse)
    for n in range(1, 5):
        for p in classes_by_n[n]:
            sr.oracle_subrep(p)
    for p in positives:
        assert sr.verify_subrep(p, sr.build_g(p)) == []


def test_table_constant_on_isomorphism_classes_and_idempotent():
    rng = random.Random(202)
    for _ in range(25):
        p = random_positive_poset(rng, rng.randint(1, 6))
        g = sr.build_g(p)
        by_code = {}
        for mask, image in g.table.items():
            code = sr.canonical_code(sr.subposet(p, mask))
            assert by_code.setdefault(code, image) == image
            assert g.table[image] == image  # representatives are fixed points


def test_build_g_verifies_for_all_small_positives(classes_by_n):
    for n, classes in classes_by_n.items():
        for p in classes:
            if sr.classify_finite(p).sub_representable:
                assert sr.verify_subrep(p, sr.build_g(p)) == []


def test_verify_accepts_oracle_output():
    rng = random.Random(301)
    for _ in range(10):
        p = random_poset(rng, rng.randint(1, 5))
        witness = sr.oracle_subrep(p)
        if witness is not None:
            assert sr.verify_subrep(p, witness) == []

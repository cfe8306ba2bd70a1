"""Presentations, coefficient matrices, kernel heights, and the preset
verdict table."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from sawlab._linalg import integer_kernel
from sawlab.presentations import (
    ParamRelatorFamily,
    PresentationError,
    PRESENTATION_PRESETS,
    choose_ghf,
    coefficient_matrix,
    parse_presentation,
    preset_presentation,
)
from sawlab.graphs import resolve_model
from sawlab.heights import GammaHeight, HeightConflict, HeightError, verify


def test_parse_roundtrip_text_and_dict():
    doc = {
        "generators": ["a", "A", "b"],
        "inverse_pairs": [["a", "A"], ["b", "b"]],
        "relators": ["b b", "a b A b"],
    }
    p1 = parse_presentation(json.dumps(doc))
    p2 = parse_presentation(doc)
    assert p1 == p2
    assert p1.generators == ("a", "A", "b")
    assert p1.relators == (("b", "b"), ("a", "b", "A", "b"))


def test_parse_rejects_bad_documents():
    base = {
        "generators": ["a", "A"],
        "inverse_pairs": [["a", "A"]],
        "relators": [],
    }
    bad = dict(base, generators=["a", "a"])
    with pytest.raises(PresentationError):
        parse_presentation(bad)
    with pytest.raises(PresentationError):
        parse_presentation(dict(base, relators=["a c"]))
    with pytest.raises(PresentationError):
        parse_presentation(dict(base, inverse_pairs=[["a", "c"]]))
    with pytest.raises(PresentationError):
        parse_presentation(dict(base, generators=["a", "A", "1"]))
    with pytest.raises(PresentationError):
        parse_presentation(dict(base, generators=[]))
    # family vectors must cover every generator count consistently
    with pytest.raises(PresentationError):
        parse_presentation(
            dict(
                base,
                relator_families=[{"u0": {"a": 1}, "u1": {"a": 1, "A": 1, "extra": 2}}],
            )
        )


@pytest.mark.parametrize("fields", [
    {"generators": 5},
    {"generators": "aA"},
    {"generators": ["a", 5]},
    {"inverse_pairs": 5},
    {"inverse_pairs": [5]},
    {"inverse_pairs": [["a", "A", "a"]]},
    {"inverse_pairs": [["a", 1]]},
    {"relators": 5},
    {"relators": [["a", "A"]]},
    {"relator_families": 5},
    {"relator_families": [5]},
    {"relator_families": [{"u0": 3}]},
    {"relator_families": [{"u0": {"a": True}}]},
], ids=str)
def test_parse_rejects_wrong_typed_fields(fields):
    doc = dict({"generators": ["a", "A"], "inverse_pairs": [["a", "A"]]}, **fields)
    with pytest.raises(PresentationError):
        parse_presentation(doc)


def kernel(p):
    return integer_kernel(coefficient_matrix(p), len(p.generators))


def test_coefficient_matrix_counts_letters():
    p = preset_presentation("tree3")
    assert p.generators == ("s1", "s2", "t")
    assert coefficient_matrix(p) == ((1, 0, 1), (0, 2, 0))


def test_family_rows_lamplighter():
    p = preset_presentation("lamplighter")
    rows = coefficient_matrix(p)
    # relators a a, t u then the parametrized family u0/u1 rows
    assert rows == ((2, 0, 0), (0, 1, 1), (4, 0, 0), (0, 2, 2))
    assert len(kernel(p)) == 1  # rank 2 of |S| = 3


def test_inverse_pairs_are_relations():
    # s S = 1 is a relation: its row e_s + e_S joins the relator rows, and
    # an involution s = S gives 2 e_s.
    p = parse_presentation({"generators": ["a", "A", "b"],
                            "inverse_pairs": [["a", "A"], ["b", "b"]]})
    assert coefficient_matrix(p) == ((1, 1, 0), (0, 0, 2))
    assert kernel(p) == [(1, -1, 0)]


def test_every_preset_lists_its_inverse_pair_rows():
    # So the pair rows add nothing to a preset: its rows, rank, kernel and
    # every `ghf --model` artifact stay as they were.
    for name in PRESENTATION_PRESETS:
        p = preset_presentation(name)
        unpaired = dataclasses.replace(p, inverse_pairs=())
        assert coefficient_matrix(p) == coefficient_matrix(unpaired), name


@st.composite
def small_presentations(draw):
    """Up to five generators, some paired (an involution pairs a symbol
    with itself), up to four relator words and at most one family."""
    gens = [f"g{i}" for i in range(draw(st.integers(1, 5)))]
    order = draw(st.permutations(gens))
    pairs = []
    while order:
        if len(order) > 1 and draw(st.booleans()):
            pairs.append(order[:2])
            order = order[2:]
        else:
            if draw(st.booleans()):
                pairs.append([order[0], order[0]])
            order = order[1:]
    words = st.lists(st.sampled_from(gens), min_size=1, max_size=5).map(" ".join)
    counts = st.dictionaries(st.sampled_from(gens), st.integers(0, 3))
    return parse_presentation({
        "generators": gens,
        "inverse_pairs": pairs,
        "relators": draw(st.lists(words, max_size=4)),
        "relator_families": draw(st.lists(st.fixed_dictionaries({"u0": counts, "u1": counts}),
                                          max_size=1)),
    })


@settings(max_examples=200, deadline=None)
@given(small_presentations())
def test_kernel_vectors_vanish_on_every_relation(p):
    rows = coefficient_matrix(p)
    basis = kernel(p)
    idx = p.symbol_index()
    for v in basis:
        assert all(sum(map(int.__mul__, v, row)) == 0 for row in rows), v
    gamma = choose_ghf(basis)
    assert (gamma is None) is (not basis)
    for s, inverse in p.inverse_pairs:
        assert gamma is None or gamma[idx[inverse]] == -gamma[idx[s]]


VERDICTS = {
    # name: (|S|, rank, exists)
    "zd2": (4, 2, True),
    "zd3": (6, 3, True),
    "tree3": (3, 2, True),
    "heisenberg": (6, 4, True),
    "square_octagon": (3, 3, False),
    "hexagonal": (3, 2, True),
    "dihedral": (2, 2, False),
    "higman": (8, 8, False),
    "sl2z": (4, 4, False),
    "lamplighter": (3, 2, True),
}


def test_preset_verdict_table():
    assert set(VERDICTS) == set(PRESENTATION_PRESETS)
    for name, (n_gen, rank, exists) in VERDICTS.items():
        p = preset_presentation(name)
        basis = kernel(p)
        assert len(p.generators) == n_gen, name
        assert len(basis) == n_gen - rank, name
        assert (choose_ghf(basis) is not None) is exists, name


def test_square_octagon_shape():
    p = preset_presentation("square_octagon")
    assert len(p.generators) == 3
    assert len(p.relators) == 5


def test_kernel_bases_frozen():
    got = {
        name: tuple(kernel(preset_presentation(name)))
        for name in VERDICTS
    }
    assert got["zd2"] == ((1, 0, 1, 0), (0, 1, 0, 1)) or got["zd2"] == (
        (1, 0, -1, 0),
        (0, 1, 0, -1),
    )
    assert got["hexagonal"] == ((0, 1, -1),)
    assert got["tree3"] == ((1, 0, -1),)
    assert got["lamplighter"] == ((0, 1, -1),)
    assert got["square_octagon"] == ()
    assert got["dihedral"] == ()
    assert got["higman"] == ()
    assert got["sl2z"] == ()
    assert len(got["heisenberg"]) == 2
    assert len(got["zd3"]) == 3


def test_choose_ghf_is_the_first_kernel_vector():
    assert choose_ghf(kernel(preset_presentation("hexagonal"))) == (0, 1, -1)
    assert choose_ghf(kernel(preset_presentation("higman"))) is None
    # No inverse symbols: the kernel vector (1, -3) steps down by 3 on b.
    p = parse_presentation({"generators": ["a", "b"], "relators": ["a a a b"]})
    assert choose_ghf(kernel(p)) == (1, -3)


def test_ghf_kernel_rows_annihilated():
    for name in VERDICTS:
        p = preset_presentation(name)
        for v in kernel(p):
            for row in coefficient_matrix(p):
                assert sum(g * x for g, x in zip(v, row)) == 0, name


@pytest.mark.parametrize("model,gamma", [
    ("tree3", (1, 1, -1)),  # s2 s2 is a relator, and 1 + 1 != 0
    ("zd2", (1, 0, 0, 0)),  # x X is a relator, and 1 + 0 != 0
])
def test_verify_rejects_a_gamma_off_the_kernel(model, gamma):
    bad = GammaHeight(tuple(zip(preset_presentation(model).generators, gamma)))
    with pytest.raises(HeightConflict):
        verify(resolve_model(model), bad, radius=2)


def test_verify_rejects_edge_labels_outside_s():
    with pytest.raises(HeightError, match="'y'"):
        verify(resolve_model("zd2"), GammaHeight((("x", 1), ("X", -1))), radius=1)


def test_preset_unknown():
    with pytest.raises(PresentationError):
        preset_presentation("nope")


def test_family_validation():
    with pytest.raises(PresentationError):
        ParamRelatorFamily(u0=(1, -1), u1=(0, 0))
    fam = ParamRelatorFamily(u0=(4, 0, 0), u1=(0, 2, 2))
    assert fam.u0 == (4, 0, 0)

"""Presentations, coefficient matrices, kernel heights, and the preset
verdict table."""

import json

import pytest

from sawlab.presentations import (
    GroupHeightSpec,
    ParamRelatorFamily,
    PresentationError,
    PRESENTATION_PRESETS,
    choose_ghf,
    coefficient_matrix,
    d_of_ghf,
    integer_kernel_basis,
    parse_presentation,
    preset_presentation,
    rank_exact,
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


def test_coefficient_matrix_counts_letters():
    p = preset_presentation("tree3")
    c = coefficient_matrix(p)
    assert c.symbols == ("s1", "s2", "t")
    assert c.rows == ((1, 0, 1), (0, 2, 0))


def test_family_rows_lamplighter():
    p = preset_presentation("lamplighter")
    c = coefficient_matrix(p)
    # relators a a, t u then the parametrized family u0/u1 rows
    assert c.rows[0] == (2, 0, 0)
    assert c.rows[1] == (0, 1, 1)
    assert (4, 0, 0) in c.rows
    assert (0, 2, 2) in c.rows
    assert rank_exact(c) == 2
    assert len(integer_kernel_basis(c).vectors) == 1


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
        c = coefficient_matrix(p)
        assert len(p.generators) == n_gen, name
        assert rank_exact(c) == rank, name
        assert (choose_ghf(p) is not None) is exists, name
        assert len(integer_kernel_basis(c).vectors) == n_gen - rank, name


def test_square_octagon_shape():
    p = preset_presentation("square_octagon")
    assert len(p.generators) == 3
    assert len(p.relators) == 5


def test_kernel_bases_frozen():
    got = {
        name: integer_kernel_basis(coefficient_matrix(preset_presentation(name))).vectors
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


def test_choose_ghf_and_d():
    spec = choose_ghf(preset_presentation("hexagonal"))
    assert spec is not None
    assert spec.gamma == (0, 1, -1)
    assert d_of_ghf(spec) == 1
    assert choose_ghf(preset_presentation("higman")) is None


def test_d_is_the_largest_absolute_increment():
    # No inverse symbols: the kernel vector (1, -3) steps down by 3 on b.
    spec = choose_ghf(parse_presentation({"generators": ["a", "b"], "relators": ["a a a b"]}))
    assert spec.gamma == (1, -3)
    assert d_of_ghf(spec) == 3


def test_ghf_kernel_rows_annihilated():
    for name in VERDICTS:
        p = preset_presentation(name)
        spec = choose_ghf(p)
        if spec is None:
            continue
        c = coefficient_matrix(p)
        for row in c.rows:
            assert sum(g * x for g, x in zip(spec.gamma, row)) == 0, name


@pytest.mark.parametrize("model,gamma", [
    ("tree3", (1, 1, -1)),  # s2 s2 is a relator, and 1 + 1 != 0
    ("zd2", (1, 0, 0, 0)),  # x X is a relator, and 1 + 0 != 0
])
def test_verify_rejects_a_gamma_off_the_kernel(model, gamma):
    symbols = preset_presentation(model).generators
    bad = GammaHeight.from_spec(GroupHeightSpec(gamma=gamma, symbols=symbols))
    with pytest.raises(HeightConflict):
        verify(resolve_model(model), bad, radius=2)


def test_verify_rejects_edge_labels_outside_s():
    spec = GroupHeightSpec(gamma=(1, -1), symbols=("x", "X"))
    with pytest.raises(HeightError, match="'y'"):
        verify(resolve_model("zd2"), GammaHeight.from_spec(spec), radius=1)


def test_preset_unknown():
    with pytest.raises(PresentationError):
        preset_presentation("nope")


def test_family_validation():
    with pytest.raises(PresentationError):
        ParamRelatorFamily(u0=(1, -1), u1=(0, 0))
    fam = ParamRelatorFamily(u0=(4, 0, 0), u1=(0, 2, 2))
    assert fam.u0 == (4, 0, 0)

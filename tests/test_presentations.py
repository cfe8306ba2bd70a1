"""Presentations, coefficient matrices, kernel heights, and the preset
verdict table."""

import json

import pytest

from sawlab.presentations import (
    GroupHeightSpec,
    ParamRelatorFamily,
    Presentation,
    PresentationError,
    PRESENTATION_PRESETS,
    betti,
    choose_ghf,
    coefficient_matrix,
    d_of_ghf,
    evaluate_ghf,
    ghf_exists,
    integer_kernel_basis,
    parse_presentation,
    preset_presentation,
    rank_exact,
    verify_well_defined,
)
from sawlab.graphs import resolve_model


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
    assert betti(p) == 1


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
        assert ghf_exists(p) is exists, name
        assert betti(p) == n_gen - rank, name


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


def test_ghf_kernel_rows_annihilated():
    for name in VERDICTS:
        p = preset_presentation(name)
        spec = choose_ghf(p)
        if spec is None:
            continue
        c = coefficient_matrix(p)
        for row in c.rows:
            assert sum(g * x for g, x in zip(spec.gamma, row)) == 0, name


def test_evaluate_ghf_word_sums():
    spec = choose_ghf(preset_presentation("hexagonal"))
    assert evaluate_ghf(spec, ["s2", "s2", "s3"]) == 1
    assert evaluate_ghf(spec, []) == 0
    with pytest.raises(PresentationError):
        evaluate_ghf(spec, ["nope"])


def test_verify_well_defined_accepts_presets():
    for name, model in [
        ("zd2", "zd2"),
        ("tree3", "tree3"),
        ("heisenberg", "heisenberg"),
        ("hexagonal", "hexagonal"),
        ("lamplighter", "lamplighter"),
    ]:
        p = preset_presentation(name)
        spec = choose_ghf(p)
        report = verify_well_defined(spec, p, depth=3, oracle=resolve_model(model))
        assert report.ok, (name, report.witness_relator, report.witness_detail)
        assert report.ball_vertices_checked > 1


def test_verify_well_defined_rejects_bad_gamma():
    p = preset_presentation("tree3")
    spec = choose_ghf(p)
    bad = type(spec)(gamma=(1, 1, -1), symbols=spec.symbols)
    report = verify_well_defined(bad, p)
    assert not report.ok
    assert report.witness_relator == ("s2", "s2")


def test_verify_well_defined_transport_conflict():
    # gamma annihilates no relator row that the ball transport would
    # expose: use zd2 with an asymmetric assignment that passes neither.
    p = preset_presentation("zd2")
    spec = choose_ghf(p)
    bad = type(spec)(gamma=(1, 0, 0, 0), symbols=spec.symbols)
    report = verify_well_defined(bad, p, depth=2, oracle=resolve_model("zd2"))
    assert not report.ok


def test_verify_well_defined_rejects_edge_labels_outside_s():
    spec = GroupHeightSpec(gamma=(1, -1), symbols=("x", "X"))
    p = Presentation(generators=spec.symbols)
    with pytest.raises(PresentationError, match="'y'"):
        verify_well_defined(spec, p, depth=1, oracle=resolve_model("zd2"))


def test_preset_unknown():
    with pytest.raises(PresentationError):
        preset_presentation("nope")


def test_family_validation():
    with pytest.raises(PresentationError):
        ParamRelatorFamily(u0=(1, -1), u1=(0, 0))
    fam = ParamRelatorFamily(u0=(4, 0, 0), u1=(0, 2, 2))
    assert fam.u0 == (4, 0, 0)

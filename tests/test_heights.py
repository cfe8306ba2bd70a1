"""Harmonic solutions, integer repair, and height verification."""

import itertools
import random
from ast import literal_eval
from fractions import Fraction

import pytest

from sawlab.graphs import PGOracle, ball, catalog, periodic_preset, resolve_model
from sawlab.heights import (
    CoordinateHeight,
    GammaHeight,
    HarmonicSolution,
    HeightError,
    HeightFunction,
    LevelHeight,
    PeriodicHeight,
    RepairExhausted,
    _coefficient_candidates,
    compute_d,
    compute_r,
    harmonic_extension,
    harmonic_residuals,
    height_table,
    increase_repair,
    repair_document,
    resolve_height,
    solution_space,
    verify_harmonic,
    verify_height_axioms,
)
from sawlab.presentations import choose_ghf, preset_presentation

F = Fraction


# ---------------------------------------------------------------------------
# Solution spaces
# ---------------------------------------------------------------------------


def test_solution_space_frozen_values():
    got = {
        name: [
            (tuple(s.lam), tuple(s.f)) for s in solution_space(periodic_preset(name))
        ]
        for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon")
    }
    assert got["zd2"] == [((F(1), F(0)), (F(0),)), ((F(0), F(1)), (F(0),))]
    assert got["dihedral_line"] == [((F(1),), (F(0), F(1, 2)))]
    assert got["hexagonal"] == [
        ((F(1), F(0)), (F(0), F(1, 3))),
        ((F(0), F(1)), (F(0), F(1, 3))),
    ]
    assert got["square_octagon"] == [
        ((F(1), F(0)), (F(0), F(-1, 4), F(-1, 2), F(-1, 4))),
        ((F(0), F(1)), (F(0), F(1, 4), F(0), F(-1, 4))),
    ]


def test_solutions_have_zero_residuals_and_f1_pinned():
    for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon"):
        pg = periodic_preset(name)
        for s in solution_space(pg):
            assert s.f[0] == 0
            assert all(r == 0 for r in harmonic_residuals(pg, s.lam, s.f))


def test_solution_constructor_rejects_non_harmonic():
    pg = periodic_preset("hexagonal")
    with pytest.raises(HeightError):
        HarmonicSolution(pg=pg, lam=(F(1), F(0)), f=(F(0), F(1)))


def test_uniqueness_perturbation_breaks_harmonicity():
    for name in ("dihedral_line", "hexagonal", "square_octagon"):
        pg = periodic_preset(name)
        for s in solution_space(pg):
            for o in range(pg.orbit_count):
                f = list(s.f)
                f[o] += F(1, 7)
                assert any(r != 0 for r in harmonic_residuals(pg, s.lam, f)), (
                    name,
                    o,
                )


def test_harmonic_extension_matches_solution_space():
    pg = periodic_preset("square_octagon")
    ext = harmonic_extension(pg, base_orbit=1, lam=(1, 0), offset=0)
    assert ext.f == (F(0), F(-1, 4), F(-1, 2), F(-1, 4))
    # pinning a different orbit shifts the solution by a constant
    ext2 = harmonic_extension(pg, base_orbit=3, lam=(1, 0), offset=0)
    assert [a - b for a, b in zip(ext.f, ext2.f)] == [F(-1, 2)] * 4
    ext3 = harmonic_extension(pg, base_orbit=1, lam=(0, 2), offset=5)
    assert ext3.f[0] == 5
    assert all(r == 0 for r in harmonic_residuals(pg, ext3.lam, ext3.f))
    with pytest.raises(HeightError):
        harmonic_extension(pg, base_orbit=9, lam=(1, 0))
    with pytest.raises(HeightError):
        harmonic_extension(pg, base_orbit=1, lam=(1,))


def test_extension_on_dihedral_line_is_identity():
    pg = periodic_preset("dihedral_line")
    ext = harmonic_extension(pg, base_orbit=1, lam=(2,), offset=0)
    assert ext.f == (F(0), F(1))
    h = increase_repair(pg)
    assert [h.at((1, (k,))) for k in range(-2, 3)] == [-4, -2, 0, 2, 4]
    assert [h.at((2, (k,))) for k in range(-2, 3)] == [-3, -1, 1, 3, 5]


# ---------------------------------------------------------------------------
# Increase repair
# ---------------------------------------------------------------------------


def test_increase_repair_frozen_outputs():
    expected = {
        "zd2": ((1, 0), (0,), 1),
        "dihedral_line": ((2,), (0, 1), 2),
        "hexagonal": ((3, 0), (0, 1), 3),
        "square_octagon": ((4, 0), (0, -1, -2, -1), 4),
    }
    for name, (lam, f, scale) in expected.items():
        h = increase_repair(periodic_preset(name))
        assert (h.lam, h.f, h.scale) == (lam, f, scale), name


def test_repair_is_integer_increasing_harmonic():
    for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon"):
        pg = periodic_preset(name)
        h = increase_repair(pg)
        g = PGOracle(pg, name)
        assert all(isinstance(x, int) for x in h.f + h.lam)
        ax = verify_height_axioms(g, h, radius=4)
        assert ax.ok, (name, ax.failures)
        hr = verify_harmonic(g, h, radius=4)
        assert hr.all_zero, name


def _reference_candidates(count, max_coeff):
    # Each max-norm ring listed in full, then sorted.
    for ring in range(1, max_coeff + 1):
        ring_vecs = [
            c
            for c in itertools.product(range(-ring, ring + 1), repeat=count)
            if max(abs(x) for x in c) == ring
        ]
        ring_vecs.sort(key=lambda c: (sum(1 for x in c if x), tuple(-x for x in c)))
        yield from ring_vecs


def test_coefficient_candidates_order_and_laziness():
    for count in (1, 2, 3, 4):
        for max_coeff in (1, 2, 3):
            assert list(_coefficient_candidates(count, max_coeff)) == list(
                _reference_candidates(count, max_coeff)
            ), (count, max_coeff)
    # Ring 1 alone has 3^40 - 1 vectors; the first one comes at once.
    assert next(_coefficient_candidates(40, 8)) == (1,) + (0,) * 39


def test_default_heights_of_the_periodic_catalog():
    # (model, lambda, f, scale, name): the coordinate heights the
    # catalog used before its models became periodic covers.
    expected = [
        ("zd1", (1,), (0,), 1, "x"),
        ("zd3", (1, 0, 0), (0,), 1, "x"),
        ("zd12", (1,) + (0,) * 11, (0,), 1, "x"),
        ("cylinder5", (1,), (0,) * 5, 1, "x"),
        ("ladder_dihedral5", (2,), (0, 1) * 5, 2, "x"),
        ("dihedral_line", (2,), (0, 1), 2, "identity"),
    ]
    for model, lam, f, scale, name in expected:
        g = resolve_model(model)
        h = resolve_height(g)
        assert (h.lam, h.f, h.scale, h.name) == (lam, f, scale, name), model
        assert resolve_height(g, name) == h, model
    # The ladder's and the line's heights are the line position p.
    for model in ("ladder_dihedral5", "dihedral_line"):
        g = resolve_model(model)
        h = resolve_height(g)
        for v in ball(g, 4).vertices:
            old = literal_eval(g.canonical_key(v).decode())
            assert h.at(v) == (old[0] if isinstance(old, tuple) else old), (model, v)


def test_repair_document_fields():
    pg = periodic_preset("square_octagon")
    h = increase_repair(pg)
    doc = repair_document(pg, h)
    assert doc["scale"] == 4
    assert doc["lambda"] == ["1", "0"]
    assert doc["f"] == ["0", "-1/4", "-1/2", "-1/4"]
    assert len(doc["increase_witnesses"]) == 4
    for wit in doc["increase_witnesses"]:
        assert Fraction(wit["lower"]) < Fraction(wit["higher"])


def test_repair_exhausted_on_constant_basis():
    pg = periodic_preset("hexagonal")
    const = HarmonicSolution(pg=pg, lam=(F(0), F(0)), f=(F(0), F(0)))
    with pytest.raises(RepairExhausted):
        increase_repair(pg, basis=[const])


# ---------------------------------------------------------------------------
# Verification on balls
# ---------------------------------------------------------------------------


class AbsHeight(HeightFunction):
    name = "abs"

    def at(self, v):
        return abs(v[1][0])


class ShiftedHeight(HeightFunction):
    name = "shifted"

    def at(self, v):
        return v[1][0] + 3


CANONICAL = [
    ("zd1", CoordinateHeight(0, label="x")),
    ("zd2", CoordinateHeight(0, label="x")),
    ("zd3", CoordinateHeight(0, label="x")),
    ("cylinder5", CoordinateHeight(0, label="x")),
    ("ladder_dihedral5", resolve_height(resolve_model("ladder_dihedral5"), "x")),
    ("dihedral_line", resolve_height(resolve_model("dihedral_line"), "identity")),
    ("grandparent", LevelHeight()),
]


def test_axioms_pass_for_canonical_heights():
    for model, h in CANONICAL:
        g = resolve_model(model)
        report = verify_height_axioms(g, h, radius=3)
        assert report.ok, (model, report.failures)
        assert report.root_value == 0


def test_axioms_pass_for_ghf_heights():
    for name in ("zd2", "tree3", "heisenberg", "hexagonal", "lamplighter"):
        g = resolve_model(name)
        spec = choose_ghf(preset_presentation(name))
        h = GammaHeight.from_spec(spec)
        report = verify_height_axioms(g, h, radius=3)
        assert report.ok, (name, report.failures)
        hr = verify_harmonic(g, h, radius=3)
        assert hr.all_zero and hr.uniform_defect == 0, name


def test_axioms_fail_without_lower_neighbor():
    report = verify_height_axioms(resolve_model("zd1"), AbsHeight(), radius=2)
    assert not report.ok
    assert any("lower" in f for f in report.failures)


def test_axioms_fail_for_shifted_root():
    report = verify_height_axioms(resolve_model("zd1"), ShiftedHeight(), radius=2)
    assert not report.ok
    assert any("h(root) = 3" in f for f in report.failures)


def test_height_table_transport_conflict():
    g = resolve_model("zd2")
    bad = GammaHeight(gamma=(("x", 1), ("X", -1), ("y", 1), ("Y", 0)))
    with pytest.raises(HeightError):
        height_table(g, bad, ball(g, 2))


def test_grandparent_level():
    g = catalog("grandparent")
    h = LevelHeight()
    report = verify_height_axioms(g, h, radius=4)
    assert report.ok
    hr = verify_harmonic(g, h, radius=4)
    assert not hr.all_zero
    assert hr.uniform_defect == F(7, 8)
    assert hr.vertices_checked > 500
    assert compute_d(g, h) == 2


def test_verify_harmonic_flags_defects():
    hr = verify_harmonic(resolve_model("zd1"), AbsHeight(), radius=2)
    assert not hr.all_zero
    assert F(0) in hr.defect_values and F(-1) in hr.defect_values


def test_compute_d_values():
    assert compute_d(resolve_model("zd2"), CoordinateHeight(0, label="x")) == 1
    gd = resolve_model("dihedral_line")
    assert compute_d(gd, resolve_height(gd, "identity")) == 1
    so = catalog("square_octagon")
    assert compute_d(so, increase_repair(so.pg)) == 2
    hx = catalog("hexagonal")
    spec = choose_ghf(preset_presentation("hexagonal"))
    assert compute_d(hx, GammaHeight.from_spec(spec)) == 1
    assert compute_d(hx, increase_repair(hx.pg)) == 2


def test_compute_r_values():
    g2 = resolve_model("zd2")
    assert compute_r(g2, CoordinateHeight(0, label="x")) == 0

    gd = resolve_model("dihedral_line")
    assert (
        compute_r(
            gd,
            resolve_height(gd, "identity"),
            orbit_reps=[(1, (0,)), (2, (0,))],
            orbit_of=lambda v: v[0] - 1,
        )
        == 1
    )

    so = catalog("square_octagon")
    h = increase_repair(so.pg)
    assert compute_r(so, h, bound=8) == 3
    assert compute_r(so, h, bound=2) is None

    hx = catalog("hexagonal")
    assert compute_r(hx, increase_repair(hx.pg), bound=8) == 1


def _delta_sum(s, walk):
    total = F(0)
    for u, w in zip(walk, walk[1:]):
        total += s.value(w[0], w[1]) - s.value(u[0], u[1])
    return total


def test_closed_walk_increments_sum_to_zero():
    rng = random.Random(7)
    for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon"):
        pg = periodic_preset(name)
        g = PGOracle(pg, name)
        for s in solution_space(pg):
            for _ in range(20):
                # random out-and-back closed walk from the root
                path = [g.root]
                for _ in range(rng.randrange(1, 8)):
                    nbrs = [w for w, _ in g.neighbors(path[-1])]
                    path.append(rng.choice(nbrs))
                assert _delta_sum(s, path + path[-2::-1]) == 0


def test_fundamental_cycle_increments_sum_to_zero():
    # non-tree ball edges close genuine cycles (hexagon/octagon faces
    # included), not just out-and-back retracings
    for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon"):
        pg = periodic_preset(name)
        g = PGOracle(pg, name)
        b = ball(g, 3)
        parent = {0: None}
        order = sorted(range(len(b.vertices)), key=lambda i: b.distances[i])
        adj = {i: [] for i in range(len(b.vertices))}
        for i, j in b.edges:
            adj[i].append(j)
            adj[j].append(i)
        for i in order:
            for j in adj[i]:
                if j not in parent:
                    parent[j] = i

        def path_to_root(i):
            out = [i]
            while parent[out[-1]] is not None:
                out.append(parent[out[-1]])
            return [b.vertices[k] for k in out]

        cycles = 0
        for i, j in b.edges:
            if parent.get(j) == i or parent.get(i) == j:
                continue
            walk = path_to_root(i)[::-1] + path_to_root(j)
            for s in solution_space(pg):
                assert _delta_sum(s, walk) == 0
            cycles += 1
        # the dihedral-line cover is a line: no cycles to close
        assert cycles > 0 or name == "dihedral_line", name


def test_periodic_height_values():
    h = PeriodicHeight(f=(0, -1, -2, -1), lam=(4, 0), scale=4)
    assert h.at((1, (0, 0))) == 0
    assert h.at((3, (1, -5))) == 2
    assert h.at((2, (-1, 2))) == -5

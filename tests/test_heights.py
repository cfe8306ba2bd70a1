"""Harmonic solutions, integer repair, and height verification."""

import itertools
import random
import time
from ast import literal_eval
from fractions import Fraction

import pytest

import oracles
from sawlab._linalg import bareiss_rank
from sawlab.graphs import (
    PERIODIC_PRESETS,
    PGOracle,
    ball,
    catalog,
    periodic_graph_from_document,
    periodic_preset,
    resolve_model,
)
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
    transport,
    verify_harmonic,
    verify_height_axioms,
    verify_on_one_ball,
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


PINNED_LAPLACIAN_GRAPHS = (
    [("preset", name) for name in sorted(PERIODIC_PRESETS)]
    + [("model", f"zd{d}") for d in range(1, 5)]
    + [("model", f"{family}{m}") for family in ("cylinder", "ladder_dihedral")
       for m in range(3, 10)]
    + [("model", name) for name in ("hexagonal", "square_octagon", "dihedral_line")]
)


@pytest.mark.parametrize("source,name", PINNED_LAPLACIAN_GRAPHS)
def test_pinned_quotient_laplacian_has_full_rank(source, name):
    # solution_space relies on this: the quotient Laplacian with orbit 1's
    # row and column removed is nonsingular, so no lambda = 0 solution
    # other than the constants exists and every extension is unique.
    pg = periodic_preset(name) if source == "preset" else resolve_model(name).pg
    m = pg.orbit_count
    rows = [[0] * (m - 1) for _ in range(m - 1)]
    for o in range(2, m + 1):
        rows[o - 2][o - 2] += pg.degree(o)
        for o2, _t, _label in pg.out_edges(o):
            if o2 != 1:
                rows[o - 2][o2 - 2] -= 1
    assert bareiss_rank(rows) == m - 1
    assert [s.lam for s in solution_space(pg)] == [
        tuple(F(int(i == j)) for j in range(pg.dim)) for i in range(pg.dim)
    ]


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


def pinned_orbit_document(d):
    """Orbit 2 hangs off orbit 1 by one edge of voltage 0, so every
    harmonic solution gives it orbit 1's value: no combination of the d
    basis solutions increases there."""
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    return {"orbits": 2, "dim": d, "edges": [[1, 2, [0] * d]] + [[1, 1, e] for e in units]}


def test_repair_exhausted_at_once_on_an_orbit_without_increments():
    pg = periodic_graph_from_document(pinned_orbit_document(6))
    t0 = time.monotonic()
    with pytest.raises(RepairExhausted, match="orbit 2"):
        increase_repair(pg)
    # The candidate search would try up to 17^6 combinations.
    assert time.monotonic() - t0 < 1.0


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


def test_verify_on_one_ball_equals_the_three_checks():
    cases = CANONICAL + [
        (name, GammaHeight.from_spec(choose_ghf(preset_presentation(name))))
        for name in ("tree3", "heisenberg", "lamplighter")
    ] + [("zd1", AbsHeight()), ("zd1", ShiftedHeight()),
         ("hexagonal", resolve_height(resolve_model("hexagonal")))]
    for model, h in cases:
        g = resolve_model(model)
        for radius in range(5):
            d_radius = max(2, min(radius, 4))
            got = verify_on_one_ball(g, h, radius, d_radius)
            assert got.axioms == verify_height_axioms(g, h, radius), (model, radius)
            assert got.harmonic == verify_harmonic(g, h, radius), (model, radius)
            assert got.d == compute_d(g, h, d_radius), (model, radius)


def test_verification_rejects_negative_radius():
    g = resolve_model("zd2")
    h = CoordinateHeight(0, label="x")
    for check in (verify_height_axioms, verify_harmonic):
        with pytest.raises(HeightError):
            check(g, h, -1)
    with pytest.raises(HeightError):
        verify_on_one_ball(g, h, -1, 2)


class _BentPeriodicHeight(PeriodicHeight):
    """3x + (x mod 2) on zd2: every vertex keeps a lower and a higher
    neighbor, but the height is not affine in x."""

    def at(self, v):
        return super().at(v) + v[1][0] % 2


def test_axioms_fail_for_non_affine_periodic_height():
    g = resolve_model("zd2")
    report = verify_height_axioms(g, _BentPeriodicHeight(f=(0,), lam=(3, 0)), radius=2)
    assert report.failures == ["difference-invariance violated at 1 translates"]
    assert report.invariance_note == "exact (all orbits x translation window)"
    affine = verify_height_axioms(g, PeriodicHeight(f=(0,), lam=(3, 0)), radius=2)
    assert affine.ok and affine.invariance_note == report.invariance_note


def test_height_table_transport_conflict():
    g = resolve_model("zd2")
    bad = GammaHeight(gamma=(("x", 1), ("X", -1), ("y", 1), ("Y", 0)))
    with pytest.raises(HeightError):
        height_table(g, bad, ball(g, 2))


def transported(g, h, radius, convention="induced"):
    """{vertex: height} of the kept vertices, and the heights given to the
    edges into the vertices that are not kept."""
    ids, values = {}, []
    for _ in transport(g, h, g.root, radius, ids, values, convention=convention):
        pass
    return {v: values[i] for v, i in ids.items()}, values[len(ids):]


@pytest.mark.parametrize("model,h", CANONICAL, ids=[model for model, _ in CANONICAL])
def test_transport_equals_direct_evaluation(model, h):
    g = resolve_model(model)
    for radius in range(5):
        b = ball(g, radius)
        direct = {v: h.at(v) for v in b.vertices}
        assert transported(g, h, radius) == (direct, [])
        if radius == 0:
            continue
        # The walk convention keeps the vertices inside the shell, and
        # carries a height along every edge into the shell.
        inner = {v: hv for v, hv in direct.items() if b.distances[b.index[v]] < radius}
        into_shell = sorted(h.at(w) for v in inner for w, _ in g.neighbors(v) if w not in inner)
        kept, carried = transported(g, h, radius, "walk")
        assert (kept, sorted(carried)) == (inner, into_shell), radius


@pytest.mark.parametrize("model", ["zd2", "tree3", "heisenberg", "hexagonal", "lamplighter"])
def test_transport_of_ghf_heights_equals_height_table(model):
    g = resolve_model(model)
    spec = choose_ghf(preset_presentation(model))
    h = GammaHeight.from_spec(spec)
    b = ball(g, 4)
    got, _ = transported(g, h, 4)
    assert [got[v] for v in b.vertices] == height_table(g, h, b)
    assert got == oracles.word_sum_heights(g.neighbors, g.root, spec.gamma_by_symbol(), 4)


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


def test_compute_r_matches_brute_force_at_any_representative():
    hx = catalog("hexagonal")
    spec = choose_ghf(preset_presentation("hexagonal"))
    gamma = spec.gamma_by_symbol()
    ghf = GammaHeight.from_spec(spec)

    def word_sum_r(reps, bound):
        return oracles.brute_compute_r(hx.neighbors, reps, hx.orbit_label, bound,
                                       lambda u: 0, lambda hv, w, label: hv + gamma[label])

    # The second default representative is not the root; the word-sum
    # height is carried from each representative.
    assert hx.orbit_reps()[1] != hx.root
    assert compute_r(hx, ghf) == word_sum_r(hx.orbit_reps(), 8) == 1
    away = [(2, (1, -1)), (1, (0, 3))]
    for bound in (1, 2, 3):
        assert compute_r(hx, ghf, orbit_reps=away, bound=bound) == word_sum_r(away, bound)
    # On a cylinder the last step must raise x: r is 4, not the 3 of a
    # walk whose end only ties its interior.
    for name in ("hexagonal", "square_octagon", "cylinder4", "ladder_dihedral4"):
        g = resolve_model(name)
        h = resolve_height(g)
        for bound in (2, 3, 4, 6):
            assert compute_r(g, h, bound=bound) == oracles.brute_compute_r(
                g.neighbors, g.orbit_reps(), g.orbit_label, bound,
                h.at, lambda hv, w, label: h.at(w)), (name, bound)


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

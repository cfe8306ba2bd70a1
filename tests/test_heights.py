"""Harmonic solutions, integer repair, and height verification."""

import itertools
import random
import re
import time
from ast import literal_eval
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sawlab._linalg import rref
from sawlab.graphs import (
    GraphOracle,
    PGOracle,
    ball,
    periodic_graph_from_document,
    resolve_model,
)
from sawlab.heights import (
    GammaHeight,
    HarmonicSolution,
    HeightConflict,
    HeightError,
    HeightFunction,
    LevelHeight,
    PeriodicHeight,
    RepairExhausted,
    harmonic_residuals,
    increase_repair,
    repair_document,
    resolve_height,
    solution_space,
    transport,
    verify,
)
from sawlab.saw import _walk
from test_saw import voltage_documents

F = Fraction


# ---------------------------------------------------------------------------
# Solution spaces
# ---------------------------------------------------------------------------


def test_solution_space_frozen_values():
    got = {
        name: [
            (tuple(s.lam), tuple(s.f)) for s in solution_space(resolve_model(name).pg)
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
        pg = resolve_model(name).pg
        for s in solution_space(pg):
            assert s.f[0] == 0
            assert all(r == 0 for r in harmonic_residuals(pg, s.lam, s.f))


PINNED_LAPLACIAN_GRAPHS = (
    [("preset", name) for name in ("dihedral_line", "hexagonal", "square_octagon", "zd2")]
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
    pg = resolve_model(name).pg
    m = pg.orbit_count
    rows = [[0] * (m - 1) for _ in range(m - 1)]
    for o in range(2, m + 1):
        rows[o - 2][o - 2] += pg.degree(o)
        for o2, _t, _label in pg.out_edges(o):
            if o2 != 1:
                rows[o - 2][o2 - 2] -= 1
    assert len(rref(rows)[1]) == m - 1
    assert [s.lam for s in solution_space(pg)] == [
        tuple(F(int(i == j)) for j in range(pg.dim)) for i in range(pg.dim)
    ]


def test_solution_constructor_rejects_non_harmonic():
    pg = resolve_model("hexagonal").pg
    with pytest.raises(HeightError):
        HarmonicSolution(pg=pg, lam=(F(1), F(0)), f=(F(0), F(1)))


def test_uniqueness_perturbation_breaks_harmonicity():
    for name in ("dihedral_line", "hexagonal", "square_octagon"):
        pg = resolve_model(name).pg
        for s in solution_space(pg):
            for o in range(pg.orbit_count):
                f = list(s.f)
                f[o] += F(1, 7)
                assert any(r != 0 for r in harmonic_residuals(pg, s.lam, f)), (
                    name,
                    o,
                )


def test_extension_on_dihedral_line_is_identity():
    pg = resolve_model("dihedral_line").pg
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
        h = increase_repair(resolve_model(name).pg)
        assert (h.lam, h.f, h.scale) == (lam, f, scale), name


def test_repair_is_integer_increasing_harmonic():
    for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon"):
        pg = resolve_model(name).pg
        h = increase_repair(pg)
        g = PGOracle(pg, name)
        assert all(isinstance(x, int) for x in h.f + h.lam)
        check = verify(g, h, radius=4)
        assert check.ok, (name, check.failures)
        assert check.all_zero, name


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


# Every name that resolves to a coordinate of the catalog: x, y where the
# dimension is >= 2, and identity on zd1. On zd<d> and cylinder<m> x is
# the repaired default height, which is the coordinate.
COORDINATE_HEIGHTS = [
    ("zd1", "x"), ("zd1", "identity"), ("zd2", "x"), ("zd2", "y"), ("zd3", "y"),
    ("dihedral", "x"), ("hexagonal", "x"), ("hexagonal", "y"),
    ("square_octagon", "x"), ("square_octagon", "y"), ("cylinder5", "x"),
    ("heisenberg", "x"), ("heisenberg", "y"),
]


@pytest.mark.parametrize("model,name", COORDINATE_HEIGHTS)
def test_coordinate_heights_read_the_raw_coordinate(model, name):
    g = resolve_model(model)
    h = resolve_height(g, name)
    assert h.name == name
    got, _ = transported(g, h, 5)
    assert set(got) == set(ball(g, 4).vertices)
    i = int(name == "y")
    assert got == {v: oracles.raw_coordinate(v, i) for v in got}


def test_repair_document_fields():
    pg = resolve_model("square_octagon").pg
    h = increase_repair(pg)
    doc = repair_document(pg, h)
    assert doc["scale"] == 4
    assert doc["lambda"] == ["1", "0"]
    assert doc["f"] == ["0", "-1/4", "-1/2", "-1/4"]
    assert len(doc["increase_witnesses"]) == 4
    for wit in doc["increase_witnesses"]:
        assert Fraction(wit["lower"]) < Fraction(wit["higher"])


def test_repair_exhausted_in_dimension_0():
    # Every harmonic solution of a dimension-0 document is constant.
    pg = periodic_graph_from_document({"orbits": 2, "dim": 0, "edges": [[1, 2, []]]})
    assert solution_space(pg) == []
    with pytest.raises(RepairExhausted, match="dimension 0"):
        increase_repair(pg)


def pinned_orbit_document(d):
    """Orbit 2 hangs off orbit 1 by one edge of voltage 0, so every
    harmonic solution gives it orbit 1's value: no combination of the d
    basis solutions increases there."""
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    return {"orbits": 2, "dim": d, "edges": [[1, 2, [0] * d]] + [[1, 1, e] for e in units]}


def pairs_document(d):
    """Hub orbit 1 has the unit loops; each pair i < j adds one orbit per
    sign, joined to the hub by the voltages 0 and e_i -+ e_j. The orbit
    of e_i - s e_j has no neighbor of another height under the
    combinations with c_i = s c_j, so an increasing combination needs d
    distinct |c_i|, and no signed basis solution is one once d >= 3."""
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    edges = [[1, 1, e] for e in units]
    orbit = 1
    for i, j in itertools.combinations(range(d), 2):
        for sign in (1, -1):
            orbit += 1
            t = [a - sign * b for a, b in zip(units[i], units[j])]
            edges += [[1, orbit, [0] * d], [1, orbit, t]]
    return {"orbits": orbit, "dim": d, "edges": edges}


def test_repair_exhausted_at_once_on_an_orbit_without_increments():
    pg = periodic_graph_from_document(pinned_orbit_document(6))
    t0 = time.monotonic()
    with pytest.raises(RepairExhausted, match="orbit 2"):
        increase_repair(pg)
    # The orbit is found before any candidate is tried.
    assert time.monotonic() - t0 < 1.0


def test_repair_of_the_pairs_document_is_fast_and_verified():
    pg = periodic_graph_from_document(pairs_document(5))
    assert (pg.orbit_count, len(pg.edges)) == (21, 90)
    t0 = time.monotonic()
    h = increase_repair(pg)
    # A search over coefficient vectors by max-norm ring reaches the
    # first success, with five distinct |c_i|, only in ring 4.
    assert time.monotonic() - t0 < 1.0
    assert h.lam == (2, 4, 8, 16, 32) and h.scale == 2
    check = verify(PGOracle(pg), h, radius=2)
    assert check.ok, check.failures
    assert check.all_zero


@settings(max_examples=60, deadline=5000)
@given(voltage_documents())
def test_repair_is_verified_or_names_an_orbit_without_increments(doc):
    pg = periodic_graph_from_document(doc)
    try:
        h = increase_repair(pg)
    except RepairExhausted as exc:
        o = int(re.search(r"orbit (\d+)", str(exc)).group(1))
        for s in solution_space(pg):
            assert all(s.value(o2, t) == s.f[o - 1] for o2, t, _ in pg.out_edges(o))
        return
    check = verify(PGOracle(pg), h, radius=2)
    assert check.ok, check.failures
    assert check.all_zero


@settings(max_examples=60, deadline=None)
@given(voltage_documents())
def test_one_reduction_equals_one_extension_per_direction(doc):
    # solution_space solves every lattice direction in one reduction; each
    # solution is the extension of that direction alone, and the repair
    # equals a reference that solves each direction on its own.
    pg = periodic_graph_from_document(doc)
    units = [tuple(int(i == j) for j in range(pg.dim)) for i in range(pg.dim)]
    assert [(s.lam, s.f) for s in solution_space(pg)] == [
        (e, tuple(oracles.reference_extension(pg, e))) for e in units]
    want = oracles.reference_increase_repair(pg)
    if want is None:
        with pytest.raises(RepairExhausted):
            increase_repair(pg)
    else:
        h = increase_repair(pg)
        assert (h.f, h.lam, h.scale) == want


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
    # The x coordinate of each cover: the periodic height f = 0, lambda = e_1.
    ("zd1", PeriodicHeight((0,), (1,), name="x")),
    ("zd2", PeriodicHeight((0,), (1, 0), name="x")),
    ("zd3", PeriodicHeight((0,), (1, 0, 0), name="x")),
    ("cylinder5", PeriodicHeight((0,) * 5, (1,), name="x")),
    ("ladder_dihedral5", resolve_height(resolve_model("ladder_dihedral5"), "x")),
    ("dihedral_line", resolve_height(resolve_model("dihedral_line"), "identity")),
    ("grandparent", LevelHeight()),
]


def test_axioms_pass_for_canonical_heights():
    for model, h in CANONICAL:
        g = resolve_model(model)
        report = verify(g, h, radius=3)
        assert report.ok, (model, report.failures)
        assert report.root_value == 0


def test_axioms_pass_for_ghf_heights():
    for name in ("zd2", "tree3", "heisenberg", "hexagonal", "lamplighter"):
        g = resolve_model(name)
        report = verify(g, resolve_height(g, "ghf"), radius=3)
        assert report.ok, (name, report.failures)
        assert report.all_zero and report.uniform_defect == 0, name


def test_axioms_fail_without_lower_neighbor():
    report = verify(resolve_model("zd1"), AbsHeight(), radius=2)
    assert not report.ok
    assert any("lower" in f for f in report.failures)


def test_axioms_fail_for_shifted_root():
    report = verify(resolve_model("zd1"), ShiftedHeight(), radius=2)
    assert not report.ok
    assert any("h(root) = 3" in f for f in report.failures)


def assert_verify_equals_reference(g, h, radius):
    """Every field and property of `verify`'s record equals
    `oracles.reference_verify` on `g`, or the note of the height's kind.
    The cases given to it have affine periodic heights, so the exact
    invariance check adds no failure."""
    if isinstance(h, GammaHeight):
        at = oracles.word_sum_heights(g.neighbors, g.root, dict(h.gamma), radius + 2).get
    else:
        at = h.at
    want = oracles.reference_verify(g.neighbors, g.root, at, radius, g.canonical_key)
    if isinstance(h, PeriodicHeight):
        note = "exact (unit translations of each orbit)"
    else:
        note = "structural (invariant by construction)"
    want["invariance_note"] = note
    got = verify(g, h, radius)
    assert {k: getattr(got, k) for k in want} == want, radius


class CubeHeight(HeightFunction):
    """x^3 on a line: increasing, with increments that grow outward."""

    name = "cube"

    def at(self, v):
        return v[1][0] ** 3


# Three orbits on Z. The edges within distance 1 of the root change x by
# at most 1, but the orbit-3 loop joins (3, -1) and (3, 1), two vertices
# at distance 2: x is an exact periodic height with d = 2.
COORDINATE_JUMP = {"orbits": 3, "dim": 1, "edges": [
    [1, 1, [1]], [1, 2, [0]], [2, 3, [-1]], [2, 3, [1]], [3, 3, [2]]]}
JUMP = PGOracle(periodic_graph_from_document(COORDINATE_JUMP), "coordinate_jump")

VERIFY_CASES = CANONICAL + [
    (name, resolve_height(resolve_model(name), "ghf"))
    for name in ("tree3", "heisenberg", "lamplighter")
] + [("zd1", AbsHeight()), ("zd1", ShiftedHeight()), ("zd1", CubeHeight()),
     ("hexagonal", resolve_height(resolve_model("hexagonal"))),
     ("coordinate_jump", resolve_height(JUMP, "x"))]


@pytest.mark.parametrize("model,h", VERIFY_CASES,
                         ids=[f"{model}-{h.name}" for model, h in VERIFY_CASES])
def test_verify_equals_reference_verify(model, h):
    g = JUMP if model == "coordinate_jump" else resolve_model(model)
    for radius in range(5):
        assert_verify_equals_reference(g, h, radius)


def test_x_on_the_coordinate_jump_cover_is_an_exact_periodic_height():
    h = resolve_height(JUMP, "x")
    assert h == PeriodicHeight((0, 0, 0), (1,), name="x")
    for radius in range(5):
        check = verify(JUMP, h, radius)
        assert check.ok and check.failures == [], radius
        assert check.invariance_note == "exact (unit translations of each orbit)"
        assert check.d == 2, radius


@settings(max_examples=30, deadline=5000)
@given(voltage_documents())
def test_verify_equals_reference_verify_on_repaired_covers(doc):
    pg = periodic_graph_from_document(doc)
    try:
        h = increase_repair(pg)
    except RepairExhausted:
        return
    g = PGOracle(pg)
    for radius in range(5):
        assert_verify_equals_reference(g, h, radius)


def test_verification_rejects_negative_radius():
    with pytest.raises(HeightError):
        verify(resolve_model("zd2"), PeriodicHeight((0,), (1, 0)), -1)


class _BentPeriodicHeight(PeriodicHeight):
    """3x + (x mod 2) on zd2: every vertex keeps a lower and a higher
    neighbor, but the height is not affine in x."""

    def at(self, v):
        return super().at(v) + v[1][0] % 2


def test_axioms_fail_for_non_affine_periodic_height():
    g = resolve_model("zd2")
    report = verify(g, _BentPeriodicHeight(f=(0,), lam=(3, 0)), radius=2)
    assert report.failures == ["difference-invariance violated at 1 translates"]
    assert report.invariance_note == "exact (unit translations of each orbit)"
    affine = verify(g, PeriodicHeight(f=(0,), lam=(3, 0)), radius=2)
    assert affine.ok and affine.invariance_note == report.invariance_note


def test_verify_refuses_a_transport_conflict():
    g = resolve_model("zd2")
    bad = GammaHeight(gamma=(("x", 1), ("X", -1), ("y", 1), ("Y", 0)))
    with pytest.raises(HeightConflict):
        verify(g, bad, radius=1)


class _Cycle7(GraphOracle):
    """The cycle C_7: the edge labelled a from k goes to k + 1 mod 7."""

    name = "cycle7"

    @property
    def root(self):
        return 0

    def neighbors(self, v):
        return (((v + 1) % 7, "a"), ((v - 1) % 7, "A"))


def test_verify_finds_a_conflict_on_an_edge_of_the_outer_shell():
    # The word sum a -> 1 is not well defined on the odd cycle, but the
    # cycle closes only on the edge 3 -- 4, between two vertices at
    # distance 3: the radius-2 check finds it only by expanding the
    # radius + 1 shell.
    g, h = _Cycle7(), GammaHeight(gamma=(("a", 1), ("A", -1)))
    with pytest.raises(HeightConflict):
        verify(g, h, radius=2)


def transported(g, h, radius, above=False):
    """{vertex: height} of the vertices `transport` keeps, and the heights
    given to the edges into the vertices that it does not keep."""
    ids, values = {}, []
    for _ in transport(g, h, g.root, radius, ids, values, above=above):
        pass
    return {v: values[i] for v, i in ids.items()}, values[len(ids):]


@pytest.mark.parametrize("model,h", CANONICAL, ids=[model for model, _ in CANONICAL])
def test_transport_equals_direct_evaluation(model, h):
    g = resolve_model(model)
    for radius in range(1, 6):
        # Transport keeps the vertices inside the radius-`radius` shell,
        # and carries a height along every edge into the shell.
        b = ball(g, radius)
        inner = {v: h.at(v) for v, dist in zip(b.vertices, b.distances) if dist < radius}
        into_shell = sorted(h.at(w) for v in inner for w, _ in g.neighbors(v) if w not in inner)
        kept, carried = transported(g, h, radius)
        assert (kept, sorted(carried)) == (inner, into_shell), radius


def test_transport_reads_a_vertex_height_once_per_kept_vertex(monkeypatch):
    from sawlab import saw

    reads = []
    at = PeriodicHeight.at

    def counting_at(self, v):
        reads.append(v)
        return at(self, v)

    monkeypatch.setattr(PeriodicHeight, "at", counting_at)
    # verify on zd3 at radius 9 expands the radius-9 ball and reads each
    # of the 1561 vertices within distance 10 once; the invariance check
    # reads the root and its three unit translates, 6 more.
    g = resolve_model("zd3")
    verify(g, resolve_height(g), 9)
    assert len(reads) == 1567 and len(set(reads)) == 1561
    # The bridge ball of zd2 under x at n = 8 reads each vertex it keeps
    # once, and the vertices at distance 8 once per edge into them: 92
    # reads of 78 vertices.
    g = resolve_model("zd2")
    reads.clear()
    saw._compile_ball(g, resolve_height(g, "x"), g.root, 8)
    assert len(reads) == 92 and len(set(reads)) == 78


@pytest.mark.parametrize("model", ["zd2", "tree3", "heisenberg", "hexagonal", "lamplighter"])
def test_transport_of_ghf_heights_equals_word_sums(model):
    g = resolve_model(model)
    h = resolve_height(g, "ghf")
    got, _ = transported(g, h, 5)
    assert got == oracles.word_sum_heights(g.neighbors, g.root, dict(h.gamma), 4)


def assert_walk_carries_transported_heights(g, h, n):
    """Every bridge end of `saw._walk` of length 1..n has the height
    `transport(above=True)` gives it on the radius-n ball above the root,
    and the running maximum of its path; and those ends are the ball's
    vertices other than the root."""
    kept, _ = transported(g, h, n + 1, above=True)
    relative = {v: hv - kept[g.root] for v, hv in kept.items()}
    reached = set()
    for length in range(1, n + 1):
        ends = []
        _walk(g, h, (g.root,), length, out=ends)
        for path, hw, top in ends:
            assert hw == relative[path[-1]], path
            assert top == max(relative[v] for v in path[:-1]), path
            reached.add(path[-1])
    assert reached == set(kept) - {g.root}


@pytest.mark.parametrize("model", ["tree3", "heisenberg", "lamplighter"])
def test_walk_carries_word_sum_heights_as_transport_does(model):
    g = resolve_model(model)
    assert_walk_carries_transported_heights(g, resolve_height(g, "ghf"), 6)


@settings(max_examples=40, deadline=5000)
@given(voltage_documents(), st.integers(1, 5))
def test_walk_carries_repaired_heights_as_transport_does(doc, n):
    pg = periodic_graph_from_document(doc)
    try:
        h = increase_repair(pg)
    except RepairExhausted:
        return
    assert_walk_carries_transported_heights(PGOracle(pg), h, n)


def test_grandparent_level():
    g = resolve_model("grandparent")
    h = LevelHeight()
    report = verify(g, h, radius=4)
    assert report.ok
    assert not report.all_zero
    assert report.uniform_defect == F(7, 8)
    assert report.checked > 500
    assert verify(g, h, radius=2).d == 2


def test_verify_harmonic_flags_defects():
    check = verify(resolve_model("zd1"), AbsHeight(), radius=2)
    assert not check.all_zero
    assert F(0) in check.defect_values and F(-1) in check.defect_values


def test_d_values():
    # d is read on the radius-2 ball for every radius <= 2.
    def d(g, h):
        return verify(g, h, radius=2).d

    g2 = resolve_model("zd2")
    assert d(g2, resolve_height(g2, "y")) == 1
    gd = resolve_model("dihedral_line")
    assert d(gd, resolve_height(gd, "identity")) == 1
    so = resolve_model("square_octagon")
    assert d(so, increase_repair(so.pg)) == 2
    hx = resolve_model("hexagonal")
    assert d(hx, resolve_height(hx, "ghf")) == 1
    assert d(hx, increase_repair(hx.pg)) == 2


def _delta_sum(s, walk):
    total = F(0)
    for u, w in zip(walk, walk[1:]):
        total += s.value(w[0], w[1]) - s.value(u[0], u[1])
    return total


def test_closed_walk_increments_sum_to_zero():
    rng = random.Random(7)
    for name in ("zd2", "dihedral_line", "hexagonal", "square_octagon"):
        pg = resolve_model(name).pg
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
        pg = resolve_model(name).pg
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

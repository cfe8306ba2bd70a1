"""Exact SAW/bridge counting and connective-constant bounds."""

import concurrent.futures
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sawlab import saw
from sawlab.cli import resolve_height
from sawlab.graphs import PGOracle, ball, periodic_graph_from_document, resolve_model
from sawlab.heights import (
    CoordinateHeight,
    GammaHeight,
    HeightConflict,
    HeightError,
    HeightFunction,
    LevelHeight,
    height_table,
)
from sawlab.presentations import (
    GroupHeightSpec,
    Presentation,
    preset_presentation,
    verify_well_defined,
)
from sawlab.saw import (
    BoundsReport,
    CountTable,
    check_multiplicativity,
    count_bridges,
    count_saws,
    default_budget,
    doubling_indices,
    doubling_monotone,
    mu_bounds,
    table_to_json,
)

X = CoordinateHeight(0, label="x")

BRUTE_MODELS = [
    "zd1",
    "zd2",
    "zd3",
    "tree3",
    "heisenberg",
    "lamplighter",
    "dihedral_line",
    "grandparent",
    "hexagonal",
    "square_octagon",
    "cylinder5",
    "ladder_dihedral5",
]


# ---------------------------------------------------------------------------
# Frozen series
# ---------------------------------------------------------------------------


def test_zd2_saw_series_frozen():
    t = count_saws(resolve_model("zd2"), 12)
    assert t.series() == oracles.ZD2_SIGMA
    assert not t.partial and t.high_water == 12


def test_zd2_bridge_series_frozen():
    t = count_bridges(resolve_model("zd2"), X, 12)
    assert t.series() == oracles.ZD2_BRIDGES_X
    assert t.height_name == "x"


def test_cover_saw_series_frozen():
    hexa = count_saws(resolve_model("hexagonal"), 12)
    assert hexa.series() == oracles.HEXAGONAL_SIGMA
    so = count_saws(resolve_model("square_octagon"), 12)
    assert so.series() == oracles.SQUARE_OCTAGON_SIGMA


def test_tree3_closed_form():
    t = count_saws(resolve_model("tree3"), 10)
    assert t.series() == [oracles.tree3_sigma(n) for n in range(11)]


def test_zd1_series():
    t = count_saws(resolve_model("zd1"), 12)
    assert t.series() == [1] + [2] * 12
    b = count_bridges(resolve_model("zd1"), CoordinateHeight(0, label="identity"), 12)
    assert b.series() == [1] * 13


@pytest.mark.parametrize("model", BRUTE_MODELS)
def test_counts_match_naive_reference(model):
    g = resolve_model(model)
    nbrs = lambda v: [w for w, _ in g.neighbors(v)]
    series = count_saws(g, 7).series()
    assert series == oracles.brute_saw_counts(nbrs, g.root, 7)
    # every catalog model has min degree >= 2, so growth is monotone
    assert series[0] == 1
    assert all(a <= b for a, b in zip(series, series[1:]))


def test_bridges_match_naive_reference():
    g = resolve_model("zd2")
    nbrs = lambda v: [w for w, _ in g.neighbors(v)]
    want = oracles.brute_bridge_counts(nbrs, g.root, lambda v: v[1][0], 8)
    assert count_bridges(g, X, 8).series() == want


# ---------------------------------------------------------------------------
# Multiplicativity
# ---------------------------------------------------------------------------


def test_multiplicativity_clean_on_catalog_series():
    sig = count_saws(resolve_model("zd2"), 10)
    rep = check_multiplicativity(sig)
    assert rep.ok and rep.pairs_checked > 0
    bri = count_bridges(resolve_model("zd2"), X, 10)
    assert check_multiplicativity(bri).ok


def test_multiplicativity_detects_violations():
    bad_saw = CountTable(
        kind="saw", model="synthetic", n_max=2, counts={0: 1, 1: 2, 2: 5}, high_water=2
    )
    assert check_multiplicativity(bad_saw).violations == [(1, 1)]
    bad_bridge = CountTable(
        kind="bridge",
        model="synthetic",
        n_max=2,
        counts={0: 1, 1: 2, 2: 3},
        high_water=2,
    )
    assert check_multiplicativity(bad_bridge).violations == [(1, 1)]


def test_doubling_monotone_and_bounds_structure():
    bri = count_bridges(resolve_model("zd2"), X, 12)
    assert doubling_monotone(bri) == []
    assert doubling_indices(12) == [1, 2, 4, 8]
    bad = CountTable(
        kind="bridge",
        model="synthetic",
        n_max=2,
        counts={0: 1, 1: 3, 2: 8},
        high_water=2,
    )
    assert doubling_monotone(bad) == [(1, 2)]


def test_bridges_never_exceed_saws():
    sig = count_saws(resolve_model("zd2"), 10)
    bri = count_bridges(resolve_model("zd2"), X, 10)
    assert all(bri[n] <= sig[n] for n in range(11))


# ---------------------------------------------------------------------------
# Determinism and parallel split
# ---------------------------------------------------------------------------


def test_parallel_matches_sequential_byte_for_byte():
    g = resolve_model("zd2")
    seq = count_saws(g, 9, threads=1)
    par = count_saws(g, 9, threads=8)
    assert seq.to_csv() == par.to_csv()
    assert table_to_json(seq) == table_to_json(par)
    assert seq.nodes_used == par.nodes_used

    bseq = count_bridges(g, X, 9, threads=1)
    bpar = count_bridges(g, X, 9, threads=8)
    assert bseq.to_csv() == bpar.to_csv()
    assert bseq.nodes_used == bpar.nodes_used

    # Bridge prefixes that end below their running maximum (grandparent:
    # level steps +2/-1), a `step` height (heisenberg) and a periodic
    # height on a voltage-graph cover (hexagonal).
    for model, n in (("grandparent", 5), ("heisenberg", 6), ("hexagonal", 9)):
        g = resolve_model(model)
        h = resolve_height(g, None)
        bseq = count_bridges(g, h, n, threads=1)
        bpar = count_bridges(g, h, n, threads=8)
        assert bseq.to_csv() == bpar.to_csv(), model
        assert table_to_json(bseq) == table_to_json(bpar), model
        assert bseq.nodes_used == bpar.nodes_used, model
    g = resolve_model("grandparent")
    prefixes = []
    saw._walk(g, LevelHeight(), (g.root,), saw.SPLIT_DEPTH, out=prefixes)
    assert any(hv < hmax for _, hv, hmax in prefixes)


def test_threads_with_shallow_depth():
    g = resolve_model("zd2")
    assert count_saws(g, 3, threads=4).series() == oracles.ZD2_SIGMA[:4]


def test_start_vertex_translation_invariance():
    g = resolve_model("zd2")
    assert count_saws(g, 6, start=(1, (3, -2))).series() == oracles.ZD2_SIGMA[:7]
    shifted = count_bridges(g, X, 6, start=(1, (3, -2)))
    assert shifted.series() == oracles.ZD2_BRIDGES_X[:7]


# (model, n, sigma nodes_used, b nodes_used, budget-5000 (high_water,
# nodes_used) for sigma, then for b), b under the model's default height.
# The budget projection rests on these node counts.
FROZEN_NODES = [
    ("zd2", 10, 109823, 16128, (6, 1883), (8, 2341)),
    ("zd3", 6, 26965, 3072, (4, 1145), (6, 3072)),
    ("tree3", 12, 24547, 4227, (9, 3049), (11, 2220)),
    ("heisenberg", 6, 27381, 3092, (4, 1153), (6, 3092)),
    ("lamplighter", 10, 6051, 1163, (9, 3029), (10, 1163)),
    ("grandparent", 5, 23262, 734, (4, 3485), (5, 734)),
    ("hexagonal", 12, 19507, 4671, (9, 2755), (11, 2562)),
    ("square_octagon", 10, 4517, 1203, (9, 2391), (10, 1203)),
    ("dihedral_line", 10, 121, 66, (10, 121), (10, 66)),
    ("cylinder5", 8, 13925, 2273, (6, 1869), (8, 2273)),
]


@pytest.mark.parametrize("model,n,s_nodes,b_nodes,s_budget,b_budget", FROZEN_NODES)
def test_nodes_used_and_budget_high_water_frozen(
    model, n, s_nodes, b_nodes, s_budget, b_budget
):
    g = resolve_model(model)
    h = resolve_height(g, None)
    assert count_saws(g, n).nodes_used == s_nodes
    assert count_bridges(g, h, n).nodes_used == b_nodes
    for t, (high_water, nodes) in (
        (count_saws(g, n, budget=5000), s_budget),
        (count_bridges(g, h, n, budget=5000), b_budget),
    ):
        assert (t.high_water, t.nodes_used) == (high_water, nodes)
        assert t.partial == (high_water < n)


# ---------------------------------------------------------------------------
# Compiled-ball kernel against the oracle walker
# ---------------------------------------------------------------------------


def _table_fields(t):
    return (t.kind, t.counts, t.nodes_used, t.high_water, t.partial, t.height_name)


@pytest.mark.parametrize("model,n", [(row[0], row[1]) for row in FROZEN_NODES])
def test_kernel_tables_equal_oracle_walker(model, n, monkeypatch):
    g = resolve_model(model)
    h = resolve_height(g, None)
    runs = [(hh, budget, threads)
            for hh in (None, h) for budget in (None, 5000) for threads in (1, 2)]
    kernel = [_table_fields(saw._run_iterative(g, n, None, t, b, hh)) for hh, b, t in runs]
    monkeypatch.setattr(saw, "MAX_BALL_VERTICES", 0)
    assert saw._compile_ball(g, None, g.root, n) is None
    walker = [_table_fields(saw._run_iterative(g, n, None, t, b, hh)) for hh, b, t in runs]
    assert kernel == walker


def test_kernel_compiles_small_balls_and_caps_large_ones():
    zd2 = resolve_model("zd2")
    ball = saw._compile_ball(zd2, None, zd2.root, 4)
    # 25 vertices within distance 3 have rows; the 28 edges from there to
    # distance 4 all go to the one leaf id of height 0.
    assert len(ball.rows) == 25 and len(ball.heights) == 26
    assert sum(row.count(25) for row in ball.rows) == 28
    bridge_ball = saw._compile_ball(zd2, X, zd2.root, 4)
    assert all(hv > 0 for hv in bridge_ball.heights[1:])
    assert sorted(bridge_ball.heights[len(bridge_ball.rows):]) == [1, 2, 3, 4]
    tree3 = resolve_model("tree3")
    assert saw._compile_ball(tree3, None, tree3.root, 16) is None


class _FirstCoordinate(HeightFunction):
    """h(o, x) = x[0] on a voltage-graph cover."""

    name = "x0"

    def at(self, v):
        return v[1][0]


@st.composite
def voltage_documents(draw):
    """Small connected voltage graphs: a voltage-0 path through the orbits
    and a unit self-loop per lattice direction make every draw connected
    with cycle voltages spanning Z^d; random edges come on top."""
    orbits = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    edges = [[o, o + 1, [0] * dim] for o in range(1, orbits)]
    edges += [[1, 1, [int(i == j) for j in range(dim)]] for i in range(dim)]
    extra = st.tuples(
        st.integers(1, orbits),
        st.integers(1, orbits),
        st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
    )
    for o1, o2, t in draw(st.lists(extra, max_size=3)):
        if o1 != o2 or any(t):
            edges.append([o1, o2, t])
    return {"orbits": orbits, "dim": dim, "edges": edges}


@settings(max_examples=40, deadline=None)
@given(voltage_documents(), st.integers(1, 6))
def test_kernel_matches_brute_force_on_random_voltage_covers(doc, n):
    g = PGOracle(periodic_graph_from_document(doc))
    h = _FirstCoordinate()
    assert saw._compile_ball(g, None, g.root, n) is not None
    assert saw._compile_ball(g, h, g.root, n) is not None
    nbrs = oracles.voltage_cover_neighbors(doc)
    assert count_saws(g, n).series() == oracles.brute_saw_counts(nbrs, g.root, n)
    assert count_bridges(g, h, n).series() == oracles.brute_bridge_counts(
        nbrs, g.root, lambda v: v[1][0], n
    )


def test_step_height_conflict_raises():
    # Every step raises the transported height by 1, so a vertex reached
    # by walks of different lengths gets different heights: the height is
    # not well defined, and the count refuses it as `height_table` does.
    g = resolve_model("zd2")
    up = GammaHeight(gamma=(("x", 1), ("X", 1), ("y", 1), ("Y", 1)))
    with pytest.raises(HeightError, match="conflict"):
        saw._compile_ball(g, up, g.root, 6)
    for threads in (1, 2):
        with pytest.raises(HeightError, match="conflict"):
            count_bridges(g, up, 6, threads=threads)
    # The other consumers of `heights.transport` find the same conflict.
    with pytest.raises(HeightConflict):
        height_table(g, up, ball(g, 2))
    spec = GroupHeightSpec(gamma=(1, 1, 1, 1), symbols=("x", "X", "y", "Y"))
    assert not verify_well_defined(spec, preset_presentation("zd2"), depth=2, oracle=g).ok
    # Without relators only the ball transport can find it.
    bare = verify_well_defined(spec, Presentation(generators=spec.symbols), depth=2, oracle=g)
    assert not bare.ok and "two heights" in bare.witness_detail


def test_height_errors_surface_as_without_a_ball():
    g = resolve_model("zd2")
    with pytest.raises(HeightError):
        saw._compile_ball(g, LevelHeight(), g.root, 4)
    with pytest.raises(HeightError):
        count_bridges(g, LevelHeight(), 4)
    missing = GammaHeight(gamma=(("x", 1), ("X", -1)))
    with pytest.raises(HeightError):
        count_bridges(g, missing, 4)


# ---------------------------------------------------------------------------
# Budget handling
# ---------------------------------------------------------------------------


def test_budget_yields_exact_partial_table():
    g = resolve_model("zd2")
    t = count_saws(g, 10, budget=500)
    assert t.partial
    assert 0 < t.high_water < 10
    assert t.nodes_used <= 500
    assert t.series() == oracles.ZD2_SIGMA[: t.high_water + 1]
    # csv only reports finalized rows
    assert len(t.to_csv().strip().splitlines()) == t.high_water + 1


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("SAWLAB_BUDGET", "400")
    assert default_budget() == 400
    t = count_saws(resolve_model("zd2"), 10)
    assert t.partial and t.nodes_used <= 400


def test_budget_projection_never_cuts_mid_pass():
    g = resolve_model("zd2")
    for budget in (10, 100, 1000, 5000):
        t = count_saws(g, 9, budget=budget)
        assert t.series() == oracles.ZD2_SIGMA[: t.high_water + 1]


# ---------------------------------------------------------------------------
# One real pass for many depths: the replayed schedule
# ---------------------------------------------------------------------------


def _counting_pool(starts, map_calls, entered):
    """A process pool that records its starts and `map` calls and adds
    the nodes its tasks report to `entered[0]`."""

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            results = list(super().map(fn, *iterables, **kwargs))
            map_calls.append(len(results))
            entered[0] += sum(sum(nodes) for _, nodes in results)
            return iter(results)

    return CountingPool


@pytest.mark.parametrize("model,n", [(row[0], row[1]) for row in FROZEN_NODES])
def test_one_pass_tables_equal_iterative_reference(model, n, monkeypatch):
    monkeypatch.delenv("SAWLAB_BUDGET", raising=False)
    g = resolve_model(model)
    h = resolve_height(g, None)
    b = ball(g, n)
    height = dict(zip(b.vertices, height_table(g, h, b))).__getitem__
    nbrs = lambda v: [w for w, _ in g.neighbors(v)]
    factor = 1 + g.degree_bound()
    # Every node a walker enters, in this process or in a pool worker.
    entered = [0]
    for name in ("_walk", "_walk_ball"):
        def counted(*args, _walker=getattr(saw, name), **kwargs):
            hits, nodes = _walker(*args, **kwargs)
            entered[0] += sum(nodes)
            return hits, nodes

        monkeypatch.setattr(saw, name, counted)
    starts = []
    monkeypatch.setattr(saw, "ProcessPoolExecutor", _counting_pool(starts, [], entered))
    # Threads 2 with the default pool threshold extends the prefixes in
    # this process; with a threshold of 0 every split pass uses the pool.
    runs = ((1, saw.POOL_MIN_NODES), (2, saw.POOL_MIN_NODES), (2, 0))
    for hh, hfun in ((None, None), (h, height)):
        for budget in (None, 5000, 300, 10):
            limit = saw.DEFAULT_NODE_BUDGET if budget is None else budget
            want = oracles.iterative_reference(nbrs, g.root, n, limit, factor, hfun)
            for threads, pool_min in runs:
                monkeypatch.setattr(saw, "POOL_MIN_NODES", pool_min)
                entered[0] = 0
                t = saw._run_iterative(g, n, None, threads, budget, hh)
                assert (t.counts, t.nodes_used, t.high_water, t.partial) == want, (
                    hh, budget, threads, pool_min)
                assert entered[0] < t.nodes_used <= limit
    assert starts


def test_pool_maps_once_per_real_pass(monkeypatch):
    g = resolve_model("zd2")
    serial = count_saws(g, 10, threads=1)
    targets, starts, map_calls = [], [], []
    real_pass = saw._real_pass

    def counted_pass(state, root, target, *args):
        targets.append(target)
        return real_pass(state, root, target, *args)

    monkeypatch.setattr(saw, "_real_pass", counted_pass)
    monkeypatch.setattr(saw, "ProcessPoolExecutor", _counting_pool(starts, map_calls, [0]))
    # Too small to pay for a pool: the prefixes are extended here.
    t = count_saws(g, 10, threads=2)
    assert _table_fields(t) == _table_fields(serial)
    assert starts == [] and map_calls == []
    monkeypatch.setattr(saw, "POOL_MIN_NODES", 0)
    targets.clear()
    t = count_saws(g, 10, threads=2)
    assert _table_fields(t) == _table_fields(serial)
    assert len(starts) == 1
    assert 1 <= len(map_calls) <= len(targets)


# ---------------------------------------------------------------------------
# Connective-constant bounds
# ---------------------------------------------------------------------------


def test_mu_bounds_frozen_zd2():
    g = resolve_model("zd2")
    sig = count_saws(g, 12)
    bri = count_bridges(g, X, 12)
    rep = mu_bounds(sig, bri, precision=10)
    assert rep.best_lower == "2.2387400564" and rep.best_lower_n == 8
    assert rep.best_upper == "2.8794930876" and rep.best_upper_n == 12
    assert Fraction(2) < Fraction(rep.best_lower) < Fraction(rep.best_upper) < 3
    assert rep.rows[0].n == 1
    assert rep.rows[0].lower_root == "1.0000000000"
    assert rep.rows[0].upper_root == "4.0000000000"
    for row in rep.rows:
        assert Fraction(row.lower_root) <= Fraction(row.upper_root)


def test_gap_shrinks_with_more_terms():
    g = resolve_model("zd2")
    sig = count_saws(g, 12)
    bri = count_bridges(g, X, 12)

    def clip(t, n):
        return CountTable(
            kind=t.kind,
            model=t.model,
            n_max=n,
            counts={k: t.counts[k] for k in range(n + 1)},
            height_name=t.height_name,
            high_water=n,
        )

    gap6 = mu_bounds(clip(sig, 6), clip(bri, 6), precision=12).gap()
    gap12 = mu_bounds(sig, bri, precision=12).gap()
    assert gap12 < gap6


def test_mu_bounds_upper_only_tree3():
    rep = mu_bounds(count_saws(resolve_model("tree3"), 10), None, precision=10)
    assert rep.best_lower is None and rep.gap() is None
    assert rep.best_upper == "2.0827594880" and rep.best_upper_n == 10
    assert rep.rows[8].upper_root == "2.0921638373"  # 768^(1/9), rounded up


def test_mu_bounds_zd1_degenerate():
    g = resolve_model("zd1")
    rep = mu_bounds(
        count_saws(g, 8), count_bridges(g, CoordinateHeight(0, label="identity"), 8),
        precision=10
    )
    assert Fraction(rep.best_lower) == 1
    assert rep.best_upper == "1.0905077327"  # 2^(1/8), rounded up


def test_bounds_csv_and_json_shape():
    g = resolve_model("zd2")
    rep = mu_bounds(count_saws(g, 4), count_bridges(g, X, 4), precision=10)
    csv = rep.to_csv().splitlines()
    assert csv[0] == "n,sigma_n,b_n,lower_root,upper_root"
    assert len(csv) == 5
    doc = json.loads(table_to_json(count_saws(g, 3)))
    assert doc["counts"] == {"0": 1, "1": 4, "2": 12, "3": 36}
    assert doc["kind"] == "saw" and doc["model"] == "zd2"
    assert "generated_at" not in doc
    stamped = json.loads(table_to_json(count_saws(g, 3), timestamp="T"))
    assert stamped["generated_at"] == "T"


def test_lower_bound_uses_doubling_subsequence_only():
    # synthetic series where a non-doubling index would beat the doubling ones
    counts = {0: 1, 1: 1, 2: 1, 3: 1000, 4: 1}
    t = CountTable(
        kind="bridge", model="synthetic", n_max=4, counts=counts, high_water=4
    )
    rep = mu_bounds(None, t, precision=6)
    assert rep.best_lower_n in (1, 2, 4)
    assert Fraction(rep.best_lower) == 1


def test_count_table_basics():
    g = resolve_model("zd2")
    t = count_saws(g, 4)
    assert t[0] == 1
    assert t.column_name() == "sigma_n"
    assert t.to_csv() == "n,sigma_n\n1,4\n2,12\n3,36\n4,100\n"
    b = count_bridges(g, X, 2)
    assert b.column_name() == "b_n"
    assert b.to_csv() == "n,b_n\n1,1\n2,3\n"


def test_input_validation():
    g = resolve_model("zd2")
    with pytest.raises(ValueError):
        count_saws(g, -1)
    with pytest.raises(ValueError):
        count_saws(g, 3, threads=0)

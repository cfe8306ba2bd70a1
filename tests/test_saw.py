"""Exact SAW/bridge counting and connective-constant bounds."""

import concurrent.futures
import json
import os
import re
import time
from collections import Counter
from datetime import timedelta
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sawlab import saw
from sawlab.cli import resolve_height
from sawlab.graphs import (
    GraphError,
    PeriodicGraph,
    PGOracle,
    ball,
    periodic_graph_from_document,
    resolve_model,
)
from sawlab.heights import (
    GammaHeight,
    HeightConflict,
    HeightError,
    HeightFunction,
    LevelHeight,
    PeriodicHeight,
    transport,
    verify,
)
from sawlab.saw import (
    BoundsReport,
    CountTable,
    check_multiplicativity,
    count_bridges,
    count_saws,
    default_budget,
    doubling_indices,
    mu_bounds,
    render_json,
)

# The x coordinate of zd2: the periodic height f = 0, lambda = e_1.
X = PeriodicHeight((0,), (1, 0), name="x")

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


# (counts, nodes_used) of the bridge tables to n = 8 under the coordinate
# heights y of zd2 and x, y of heisenberg; high_water is 8, none partial.
COORDINATE_BRIDGES = {
    ("zd2", "y"): ([1, 1, 3, 7, 17, 41, 101, 251, 631], 2341),
    ("heisenberg", "x"): ([1, 1, 5, 21, 89, 369, 1555, 6601, 28427], 63461),
    ("heisenberg", "y"): ([1, 1, 5, 21, 89, 369, 1555, 6601, 28427], 63461),
}


@pytest.mark.parametrize("model,name", COORDINATE_BRIDGES)
def test_coordinate_bridge_tables_frozen(model, name):
    g = resolve_model(model)
    t = count_bridges(g, resolve_height(g, name), 8, threads=1)
    counts, nodes_used = COORDINATE_BRIDGES[model, name]
    assert (t.series(), t.nodes_used, t.high_water, t.partial) == (counts, nodes_used, 8, False)
    assert t.height_name == name


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
    b = count_bridges(resolve_model("zd1"), resolve_height(resolve_model("zd1"), "identity"), 12)
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


def test_doubling_indices_and_doubling_by_multiplicativity():
    assert doubling_indices(12) == [1, 2, 4, 8]
    # b_2n >= b_n^2 is the case m = n of supermultiplicativity, so a table
    # whose roots fall along the doubling subsequence is a violation.
    bad = CountTable(
        kind="bridge",
        model="synthetic",
        n_max=2,
        counts={0: 1, 1: 3, 2: 8},
        high_water=2,
    )
    assert check_multiplicativity(bad).violations == [(1, 1)]


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
    assert render_json(seq.to_json_dict()) == render_json(par.to_json_dict())
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
        assert render_json(bseq.to_json_dict()) == render_json(bpar.to_json_dict()), model
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
    # The honeycomb is vertex-transitive: a start in orbit 2 sees the same.
    hexagonal = resolve_model("hexagonal")
    assert count_saws(hexagonal, 8, start=(2, (1, -1))).series() == \
        count_saws(hexagonal, 8).series()


@pytest.mark.parametrize("model,height,start,n", [
    ("tree3", "ghf", 55, 10),  # the word b a b
    ("heisenberg", "ghf", (2, -1, 3), 6),
    ("lamplighter", "ghf", (5, 1), 8),
    ("grandparent", "level", (3, "10"), 5),
], ids=["tree3", "heisenberg", "lamplighter", "grandparent"])
def test_bridges_from_another_start_equal_the_roots(monkeypatch, model, height, start, n):
    # A word sum starts every walk at 0, any other height at h.at(start).
    # Each route carries the height from there: the compiled ball, the
    # words of a Cayley model, and the oracle walk.
    g = resolve_model(model)
    h = resolve_height(g, height)

    def series():
        return count_bridges(g, h, n, start=start).series()

    want = count_bridges(g, h, n).series()
    assert saw._compile_ball(g, h, start, n) is not None
    assert series() == want
    if g.cayley:
        # No bridge ball of its own: the count reads words.
        compile_ball, word_tallies = saw._compile_ball, saw._word_tallies
        words = []

        def recording(*args):
            words.append(word_tallies(*args))
            return words[-1]

        monkeypatch.setattr(saw, "_compile_ball", lambda g, h, start, n: (
            None if h is not None else compile_ball(g, h, start, n)))
        monkeypatch.setattr(saw, "_word_tallies", recording)
        assert series() == want
        assert len(words) == 1 and words[0] is not None
        monkeypatch.undo()
    monkeypatch.setattr(saw, "MAX_BALL_VERTICES", 0)
    monkeypatch.setattr(saw, "_word_tallies", lambda *args: None)
    assert series() == want


@pytest.mark.parametrize("start", [(3, (0, 0)), (0, (0, 0)), (-1, (0, 0)), (1, (0,)),
                                   (1, (0, 0, 0))], ids=repr)
def test_start_off_the_cover_is_named_before_any_ball(monkeypatch, start):
    # hexagonal has orbits 1..2 and x in Z^2. The start is checked once,
    # before a ball is built, so no walk meets a vertex it cannot expand.
    g = resolve_model("hexagonal")
    monkeypatch.setattr(saw, "_compile_ball", mock.Mock(side_effect=AssertionError))
    for count in (lambda: count_saws(g, 3, start=start),
                  lambda: count_bridges(g, resolve_height(g, "x"), 3, start=start)):
        with pytest.raises(GraphError, match=re.escape(repr(start))):
            count()


@pytest.mark.parametrize("model,start", [
    ("tree3", -1),           # a negative int
    ("tree3", 4),            # base 4 "10": a digit 0 is no letter
    ("heisenberg", (0, 0)),  # two coordinates of three
    ("lamplighter", (1,)),   # no marker position
    ("grandparent", (0, 5)),  # a level and no word
], ids=repr)
def test_start_off_a_catalog_oracle_is_named(model, start):
    g = resolve_model(model)
    with pytest.raises(GraphError, match=re.escape(f"{start!r} is not a vertex of {model}")):
        count_saws(g, 3, start=start)


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
def voltage_documents(draw, orbits=(1, 3), dims=(1, 2), extras=3):
    """Small connected voltage graphs: a voltage-0 path through the orbits
    and a unit self-loop per lattice direction make every draw connected
    with cycle voltages spanning Z^d; up to `extras` random edges come on
    top. `orbits` and `dims` bound the orbit count and dimension."""
    orbits = draw(st.integers(*orbits))
    dim = draw(st.integers(*dims))
    edges = [[o, o + 1, [0] * dim] for o in range(1, orbits)]
    edges += [[1, 1, [int(i == j) for j in range(dim)]] for i in range(dim)]
    extra = st.tuples(
        st.integers(1, orbits),
        st.integers(1, orbits),
        st.lists(st.integers(-1, 1), min_size=dim, max_size=dim),
    )
    for o1, o2, t in draw(st.lists(extra, max_size=extras)):
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
    # not well defined, and the count refuses it as `verify` does.
    g = resolve_model("zd2")
    up = GammaHeight(gamma=(("x", 1), ("X", 1), ("y", 1), ("Y", 1)))
    with pytest.raises(HeightError, match="conflict"):
        saw._compile_ball(g, up, g.root, 6)
    for threads in (1, 2):
        with pytest.raises(HeightError, match="conflict"):
            count_bridges(g, up, 6, threads=threads)
    # The other consumer of `heights.transport` finds the same conflict.
    with pytest.raises(HeightConflict):
        verify(g, up, radius=2)


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
    ids, values = {}, []
    for _ in transport(g, h, g.root, n + 1, ids, values):
        pass
    height = {v: values[i] for v, i in ids.items()}.__getitem__
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


def test_pool_has_at_most_one_worker_per_cpu(monkeypatch):
    # A stand-in pool that starts no process: it records the workers and
    # chunk size it is given and runs the tasks here.
    workers, chunks, tasks = [], [], []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def map(self, fn, iterable, chunksize):
            iterable = list(iterable)
            chunks.append(chunksize)
            tasks.append(len(iterable))
            return map(fn, iterable)

        def shutdown(self):
            pass

    # grandparent's 378 prefixes are orbits of their own: many tasks.
    g = resolve_model("grandparent")
    serial = count_saws(g, 5, threads=1)
    monkeypatch.setattr(saw, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(saw, "_worker_state", None)
    monkeypatch.setattr(saw, "POOL_MIN_NODES", 0)
    for cpus, threads, want in ((3, 5000, 3), (None, 5000, 1), (3, 2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        workers.clear(), chunks.clear(), tasks.clear()
        t = count_saws(g, 5, threads=threads)
        assert _table_fields(t) == _table_fields(serial)
        assert workers == [want]
        assert tasks == [378] and chunks == [378 // (4 * want)]


def test_pool_threshold_lies_between_grandparent_and_hexagonal(monkeypatch):
    # grandparent's n = 6 pass is bounded at 378 * 7^3 = 129,654 nodes, too
    # few to pay for a pool; hexagonal's n = 18 pass, 6 orbits * 2^15
    # compiled-ball nodes (196,608), is worth one. Its passes to 12 and
    # 17 (3,072 and 98,304) run here.
    monkeypatch.delenv("SAWLAB_BUDGET", raising=False)
    for model, n, pools in (("grandparent", 6, 0), ("hexagonal", 18, 1)):
        g = resolve_model(model)
        serial = count_saws(g, n, threads=1)
        starts, map_calls = [], []
        monkeypatch.setattr(saw, "ProcessPoolExecutor", _counting_pool(starts, map_calls, [0]))
        t = count_saws(g, n, threads=2)
        assert _table_fields(t) == _table_fields(serial), model
        assert len(starts) == len(map_calls) == pools, model


# ---------------------------------------------------------------------------
# Certified symmetry reduction
# ---------------------------------------------------------------------------


def _unit(i, dim):
    return [int(i == j) for j in range(dim)]


@st.composite
def labelled_covers(draw):
    """A small connected voltage-graph cover and a random integer height.

    A random spanning tree of voltage-0 edges joins the orbits, a unit
    loop per lattice direction makes the cycle voltages span Z^d, and
    random edges come on top. Each direction of an edge is labelled
    automatically (e<i>), by a label of its own (l<k> forward, L<k>
    back, which keeps whatever symmetry the graph has), or by a letter
    of a two-pair alphabet, which may repeat within a row or pair
    labels that are not inverse.
    """
    orbits = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    edges = [(draw(st.integers(1, o - 1)), o, (0,) * dim) for o in range(2, orbits + 1)]
    edges += [(1, 1, tuple(_unit(i, dim))) for i in range(dim)]
    extra = st.tuples(st.integers(1, orbits), st.integers(1, orbits),
                      st.tuples(*[st.integers(-1, 1)] * dim))
    edges += draw(st.lists(extra, max_size=3))
    scheme = draw(st.sampled_from(["auto", "own", "alphabet"]))
    directed = {}
    for k, (o1, o2, t) in enumerate(edges):
        back = (o2, o1, tuple(-x for x in t))
        if (o1 == o2 and not any(t)) or back in directed or (o1, o2, t) in directed:
            continue
        if scheme == "auto":
            labels = (None, None)
        elif scheme == "own":
            labels = (f"l{k}", f"L{k}")
        else:
            labels = (draw(st.sampled_from("abAB")), draw(st.sampled_from("abAB")))
        directed[(o1, o2, t)], directed[back] = labels
    pg = PeriodicGraph(orbits, dim, tuple((*key, label) for key, label in directed.items()))
    small = st.integers(-2, 2)
    f = draw(st.lists(small, min_size=orbits, max_size=orbits))
    lam = draw(st.lists(small, min_size=dim, max_size=dim))
    return PGOracle(pg), PeriodicHeight(tuple(f), tuple(lam))


def _candidate_moves(g, ball):
    return saw._label_moves(g, g.root, list(dict.fromkeys(chain.from_iterable(ball.labels))))


def _listed_prefixes(ball):
    prefixes = []
    saw._walk_ball(ball, (0,), saw.SPLIT_DEPTH, out=prefixes)
    return prefixes


def _assert_orbits_equal_the_closure(g, ball):
    """`_prefix_orbits` against the closure of the listed prefixes under
    every candidate move that `_certify` accepts, with nothing skipped."""
    prefixes = _listed_prefixes(ball)
    moves = _candidate_moves(g, ball)
    got = saw._prefix_orbits(ball, moves, prefixes)
    maps = [phi for phi in (saw._certify(ball, move) for move in moves) if phi is not None]
    want = oracles.closure_orbits([path for path, _, _ in prefixes], maps)
    assert [(prefixes[i][0], weight) for i, weight in got.items()] == want
    return want


@settings(max_examples=30, deadline=timedelta(seconds=10))
@given(labelled_covers(), st.integers(4, 6))
def test_reduced_counts_equal_unreduced_and_oracle_walker(cover, n):
    g, height = cover
    degree = g.degree_bound()
    # No pool: the pool path of a reduced pass is covered on the catalog.
    with mock.patch.object(saw, "POOL_MIN_NODES", 10**18):
        for h in (None, height):
            want = saw._real_pass((g, h), (g.root,), n, 1, degree, [], [], {})
            ball = saw._compile_ball(g, h, g.root, n)
            _assert_orbits_equal_the_closure(g, ball)
            moves = _candidate_moves(g, ball)
            for threads in (1, 2):
                for candidates in (moves, []):
                    got = saw._real_pass(ball, (0,), n, threads, degree, [], candidates, {})
                    assert got == want, (h, threads, candidates)
            runs = [(threads, budget) for threads in (1, 2) for budget in (None, 300)]
            reduced = [_table_fields(saw._run_iterative(g, n, None, t, b, h)) for t, b in runs]
            with mock.patch.object(saw, "_label_moves", lambda *args: []):
                unreduced = [_table_fields(saw._run_iterative(g, n, None, t, b, h))
                             for t, b in runs]
            with mock.patch.object(saw, "MAX_BALL_VERTICES", 0):
                walker = [_table_fields(saw._run_iterative(g, n, None, t, b, h)) for t, b in runs]
            assert reduced == unreduced == walker


CATALOG_MODELS = ["zd1", "zd2", "zd3", "heisenberg", "hexagonal", "square_octagon", "cylinder5",
                  "ladder_dihedral5", "dihedral_line", "grandparent", "tree3", "lamplighter"]


@pytest.mark.parametrize("model", CATALOG_MODELS)
def test_catalog_prefix_orbits_equal_the_closure(model):
    g = resolve_model(model)
    for h in (None, resolve_height(g, None)):
        _assert_orbits_equal_the_closure(g, saw._compile_ball(g, h, g.root, 6))


def _assert_undirected_and_loop_free(ball):
    """The premise of the SAW counter in `_walk_ball`: for inner ids i and
    j, rows[i] lists j as often as rows[j] lists i, and never i itself."""
    inner = len(ball.rows)
    entries = Counter((i, j) for i, row in enumerate(ball.rows) for j in row if j < inner)
    assert ball.undirected
    assert all(i != j for i, j in entries)
    assert all(entries[j, i] == k for (i, j), k in entries.items())


def _reference_extend(state, path, remaining, hv=0, hmax=0, out=None):
    """`saw._extend` over the frozen kernels of `oracles`."""
    if isinstance(state, saw._CompiledBall):
        return oracles.reference_walk_ball(state, path, remaining, hmax, out)
    g, h = state
    return oracles.reference_walk(g, h, path, remaining, hv, hmax, out)


def _assert_kernels_match_the_frozen_ones(g, h, n):
    """Per-depth (hits, nodes) of both walkers equal the frozen kernels'
    from the root and from every listed SPLIT_DEPTH prefix, for every
    number of steps left up to length n; the listings are equal too."""
    ball = saw._compile_ball(g, h, g.root, n)
    for state, root in ((ball, (0,)), ((g, h), (g.root,))):
        starts = [(root, 0, 0)]
        if n > saw.SPLIT_DEPTH:
            listed, frozen = [], []
            got = saw._extend(state, root, saw.SPLIT_DEPTH, out=listed)
            assert got == _reference_extend(state, root, saw.SPLIT_DEPTH, out=frozen)
            assert listed == frozen
            starts += [(path, hv, max(hv, hm)) for path, hv, hm in listed]
        for path, hv, hmax in starts:
            for remaining in range(1, n - len(path) + 2):
                want = _reference_extend(state, path, remaining, hv, hmax)
                assert saw._extend(state, path, remaining, hv, hmax) == want, (
                    type(state).__name__, h, path, remaining)


@pytest.mark.parametrize("model", CATALOG_MODELS)
def test_catalog_saw_balls_are_undirected_and_loop_free(model):
    g = resolve_model(model)
    _assert_undirected_and_loop_free(saw._compile_ball(g, None, g.root, 6))
    assert not saw._compile_ball(g, resolve_height(g, None), g.root, 6).undirected


@pytest.mark.parametrize("model", CATALOG_MODELS)
def test_catalog_walk_kernels_match_the_frozen_kernels(model):
    g = resolve_model(model)
    for h in (None, resolve_height(g, None)):
        _assert_kernels_match_the_frozen_ones(g, h, 5)


@settings(max_examples=30, deadline=None)
@given(voltage_documents(), st.integers(1, 7))
def test_walk_kernels_match_the_frozen_kernels(doc, n):
    g = PGOracle(periodic_graph_from_document(doc))
    _assert_undirected_and_loop_free(saw._compile_ball(g, None, g.root, n))
    for h in (None, _FirstCoordinate()):
        _assert_kernels_match_the_frozen_ones(g, h, n)


def _swap(*pairs):
    move = {}
    for a, b in pairs:
        move[a], move[b] = b, a
    return move


def test_certificate_keeps_bridge_heights():
    g = resolve_model("zd2")
    bridge_ball = saw._compile_ball(g, X, g.root, 6)
    # x <-> X negates the height, so the bridge ball has no image for
    # the first step; y <-> Y keeps every height.
    assert saw._certify(bridge_ball, _swap(("x", "X"))) is None
    phi = saw._certify(bridge_ball, _swap(("y", "Y")))
    assert sorted(phi) == list(range(len(bridge_ball.rows))) and phi != sorted(phi)
    assert saw._certify(saw._compile_ball(g, None, g.root, 6), _swap(("x", "X"))) is not None
    # A map that carries every row onto a row but not every height onto
    # itself is refused.
    rows, labels = [[1, 2], [3], [3]], [("a", "b"), ("c",), ("c",)]
    level = saw._CompiledBall(rows, [0, 1, 1, 2], labels)
    tilted = saw._CompiledBall(rows, [0, 1, 2, 3], labels)
    assert saw._certify(level, _swap(("a", "b"))) == [0, 2, 1]
    assert saw._certify(tilted, _swap(("a", "b"))) is None
    # A row that repeats a label is refused, even by the identity.
    doubled = saw._CompiledBall([[1, 1], [2]], [0, 1, 2], [("a", "a"), ("c",)])
    assert saw._certify(doubled._replace(labels=[("a", "b"), ("c",)]), {}) == [0, 1]
    assert saw._certify(doubled, {}) is None


def test_symmetric_root_star_in_an_asymmetric_ball_is_refused(monkeypatch):
    # Orbit 1 has a loop x, edges a, c, e into orbit 2 with voltages 0, 1
    # and 3 (no reflection of Z maps {0, 1, 3} onto itself) and an edge b
    # into orbit 3, which has no other edge. The root's star is the same
    # after a <-> b; the rows one step out are not.
    pg = PeriodicGraph(3, 1, (
        (1, 1, (1,), "x"), (1, 1, (-1,), "X"),
        (1, 2, (0,), "a"), (2, 1, (0,), "A"),
        (1, 2, (1,), "c"), (2, 1, (-1,), "C"),
        (1, 2, (3,), "e"), (2, 1, (-3,), "E"),
        (1, 3, (0,), "b"), (3, 1, (0,), "B"),
    ))
    g = PGOracle(pg)
    star = saw._compile_ball(g, None, g.root, 1)
    swap = _swap(("a", "b"), ("A", "B"))
    assert saw._certify(star, swap) is not None
    found = []
    prefix_orbits = saw._prefix_orbits
    monkeypatch.setattr(saw, "_prefix_orbits",
                        lambda *args: found.append(prefix_orbits(*args)) or found[-1])
    for n in (2, 3, 6):
        ball = saw._compile_ball(g, None, g.root, n)
        assert saw._certify(ball, swap) is None
        assert all(saw._certify(ball, move) is None for move in _candidate_moves(g, ball))
        # Every prefix a count lists is an orbit of its own (n = 2 and 3
        # list none: each pass is one DFS from the root).
        found.clear()
        count_saws(g, n)
        assert all(set(orbits.values()) == {1} for orbits in found)
        assert len(found) == (n > saw.SPLIT_DEPTH)


def test_finder_work_is_polynomial_in_the_labels(monkeypatch):
    # Z^6 as a user document: twelve distinct automatic labels, and a
    # label group (the signed permutations of the axes) of 2^6 * 6!
    # elements. The orbit finder certifies at most one candidate per move,
    # and there are O(|labels|^2) moves.
    doc = {"orbits": 1, "dim": 6, "edges": [[1, 1, _unit(i, 6)] for i in range(6)]}
    g = PGOracle(periodic_graph_from_document(doc))
    ball = saw._compile_ball(g, None, g.root, 4)
    names = sorted({label for labels in ball.labels for label in labels})
    assert len(names) == 12
    moves = saw._label_moves(g, g.root, names)
    assert len(moves) <= len(names) ** 2
    prefixes = _listed_prefixes(ball)
    certified = []
    certify = saw._certify
    monkeypatch.setattr(saw, "_certify", lambda *args: certified.append(1) or certify(*args))
    start = time.process_time()
    saw._prefix_orbits(ball, moves, prefixes)
    assert time.process_time() - start < 5
    assert len(certified) <= len(moves)
    monkeypatch.setattr(saw, "_certify", certify)
    # The whole label group acts: the 3-step walks of Z^6 fall into the
    # same six shapes as those of Z^3 (xxx, xxy, xyx, xyy, xyX, xyz).
    assert len(_assert_orbits_equal_the_closure(g, ball)) == 6


def _without_words(monkeypatch):
    """Count as if `_word_tallies` always gave up, so that a count on a
    Cayley oracle without its own ball takes the orbit route."""
    monkeypatch.setattr(saw, "_word_tallies", lambda *args: None)


def test_reduction_walks_one_prefix_per_orbit(monkeypatch):
    lengths = []  # 0 starts a real pass; else the length of a walked path
    walk, walk_ball, real_pass = saw._walk, saw._walk_ball, saw._real_pass

    def oracle_walker(g, h, path, *args, **kwargs):
        lengths.append(len(path))
        return walk(g, h, path, *args, **kwargs)

    def ball_walker(ball, path, *args, **kwargs):
        lengths.append(len(path))
        return walk_ball(ball, path, *args, **kwargs)

    def counted_pass(*args):
        lengths.append(0)
        return real_pass(*args)

    monkeypatch.setattr(saw, "_walk", oracle_walker)
    monkeypatch.setattr(saw, "_walk_ball", ball_walker)
    monkeypatch.setattr(saw, "_real_pass", counted_pass)

    def representatives(model, n, h=None):
        """Per real pass, the number of prefixes extended after the walks
        from the root (the pass's own, and on an oracle the listing of
        its certification ball)."""
        g = resolve_model(model)
        lengths.clear()
        saw._run_iterative(g, n, None, 1, None, h)
        passes = []
        for k in lengths:
            if k == 0:
                passes.append(0)
            elif k != 1:
                assert k == saw.SPLIT_DEPTH + 1
                passes[-1] += 1
        return set(passes)

    assert representatives("zd3", 8) == {6}
    assert representatives("zd2", 12) == {5}
    assert representatives("zd2", 12, X) == {4}
    # heisenberg's 150 prefixes form 20 orbits.
    assert count_saws(resolve_model("heisenberg"), 3)[3] == 150
    assert representatives("heisenberg", 8) == {20}
    # No certified automorphism (grandparent): every listed prefix, 378
    # walks and 26 bridges, is its own orbit.
    g = resolve_model("grandparent")
    assert representatives("grandparent", 6) == {378}
    assert representatives("grandparent", 6, resolve_height(g, None)) == {26}
    grandparent_ball = saw._compile_ball(g, None, g.root, 6)
    assert all(saw._certify(grandparent_ball, move) is None
               for move in _candidate_moves(g, grandparent_ball))
    # No compiled ball (tree3 and lamplighter at n = 16) and no word
    # route: the SAW counts certify s1 <-> t and t <-> u on the Cayley
    # oracles' half-radius balls, and their 12 prefixes form 6 orbits;
    # every bridge pass is one DFS from the root.
    _without_words(monkeypatch)
    for model in ("tree3", "lamplighter"):
        g = resolve_model(model)
        assert saw._compile_ball(g, None, g.root, 16) is None
        assert representatives(model, 16) == {6}, model
        assert representatives(model, 16, resolve_height(g, None)) == {0}, model


def _end(g, v, word):
    """The end of the walk along the label `word` from `v`."""
    for label in word:
        v = {name: w for w, name in g.neighbors(v)}[label]
    return v


def test_cayley_oracles_look_the_same_from_every_vertex():
    # The premise of the half-radius certificate: on a Cayley oracle the
    # compiled ball, ids, rows and labels, is the same from every start.
    cayley = [g for g in map(resolve_model, CATALOG_MODELS) if g.cayley]
    assert sorted(g.name for g in cayley) == ["heisenberg", "lamplighter", "tree3", "zd1",
                                              "zd2", "zd3"]
    for g in cayley:
        here = saw._compile_ball(g, None, g.root, 4)
        for v in ball(g, 2).vertices:
            assert saw._compile_ball(g, None, v, 4) == here, (g.name, v)
    # The grandparent graph is not one: "parent child0" closes at the
    # root but not at its child (0, "1").
    g = resolve_model("grandparent")
    assert not g.cayley
    assert _end(g, g.root, ["parent", "child0"]) == g.root
    assert _end(g, (0, "1"), ["parent", "child0"]) != (0, "1")
    assert saw._compile_ball(g, None, (0, "1"), 4) != saw._compile_ball(g, None, g.root, 4)


def test_cayley_balls_fit_through_the_documented_lengths():
    for model, own, last in (("tree3", 10, 19), ("lamplighter", 12, 23), ("heisenberg", 9, 17)):
        g = resolve_model(model)
        assert saw._compile_ball(g, None, g.root, own) is not None
        assert saw._compile_ball(g, None, g.root, own + 1) is None
        assert saw._cayley_ball(g, g.root, last) is not None
        assert saw._cayley_ball(g, g.root, last + 1) is None


@pytest.mark.parametrize("model,n", [("tree3", 16), ("lamplighter", 16), ("heisenberg", 10)])
def test_cayley_reduction_equals_the_unreduced_walk(model, n, monkeypatch):
    monkeypatch.delenv("SAWLAB_BUDGET", raising=False)
    _without_words(monkeypatch)
    g = resolve_model(model)
    assert saw._compile_ball(g, None, g.root, n) is None
    for h in (None, resolve_height(g, None)):
        # Two threads: heisenberg's unreduced oracle walk takes 8 s on one.
        with mock.patch.object(saw, "_label_moves", lambda *args: []):
            unreduced = _table_fields(saw._run_iterative(g, n, None, 2, None, h))
        for threads in (1, 2):
            assert _table_fields(saw._run_iterative(g, n, None, threads, None, h)) == unreduced, (
                h, threads)


def test_half_radius_certificate_on_a_torus(monkeypatch):
    # Z_6 x Z_8 with its own ball refused and no word route: x <-> X and
    # y <-> Y are certified on the half-radius ball, x <-> y is not,
    # though on a ball of radius n // 2 the closed words x^6 (n = 6, 7)
    # would only reach its leaves.
    _without_words(monkeypatch)
    g = oracles.TorusOracle(6, 8)
    hits, _ = saw._walk(g, None, (g.root,), 14)
    compile_ball = saw._compile_ball
    radii, found = [], []
    prefix_orbits = saw._prefix_orbits
    monkeypatch.setattr(saw, "_prefix_orbits",
                        lambda *args: found.append(prefix_orbits(*args)) or found[-1])

    def count_ball_refused(g, h, start, radius):
        radii.append(radius)
        return None if len(radii) == 1 else compile_ball(g, h, start, radius)

    monkeypatch.setattr(saw, "_compile_ball", count_ball_refused)
    for n in range(4, 15):
        radii.clear(), found.clear()
        t = saw._run_iterative(g, n, None, 1, None, None)
        assert t.series()[1:] == hits[1 : n + 1], n
        assert len(radii) == 2 and len(found) == 1
        # 36 prefixes, 10 orbits: xxx, XXX and yyy, YYY pair up; the
        # others come in fours.
        assert sorted(found[0].values()) == [2, 2] + [4] * 8, n


@pytest.mark.parametrize("model,n", [("zd2", 10), ("zd3", 7)])
def test_one_orbit_cover_reduced_past_its_own_ball(model, n, monkeypatch):
    # zd_d states `cayley`, so with its own ball refused and no word route
    # a SAW count certifies its moves on the half-radius ball and walks
    # one prefix per orbit on the oracle, with the unreduced walk's table.
    _without_words(monkeypatch)
    g = resolve_model(model)
    assert g.cayley
    compile_ball = saw._compile_ball
    radii, found = [], []

    def count_ball_refused(g, h, start, radius):
        radii.append(radius)
        return None if len(radii) == 1 else compile_ball(g, h, start, radius)

    prefix_orbits = saw._prefix_orbits
    monkeypatch.setattr(saw, "_compile_ball", count_ball_refused)
    monkeypatch.setattr(saw, "_prefix_orbits",
                        lambda *args: found.append(prefix_orbits(*args)) or found[-1])
    tables = []
    for threads in (1, 2):
        radii.clear(), found.clear()
        tables.append(_table_fields(saw._run_iterative(g, n, None, threads, None, None)))
        assert radii == [n, max(n // 2, saw.SPLIT_DEPTH) + 1]
        assert len(found) == 1 and len(found[0]) == {"zd2": 5, "zd3": 6}[model]
    radii.clear()
    with mock.patch.object(saw, "_label_moves", lambda *args: []):
        unreduced = _table_fields(saw._run_iterative(g, n, None, 1, None, None))
    assert tables == [unreduced, unreduced]
    assert unreduced[1] == dict(enumerate(OEIS_SIGMA[model][: n + 1]))


# ---------------------------------------------------------------------------
# Words that avoid closed factors on Cayley oracles
# ---------------------------------------------------------------------------


def _word_route(g, h, n):
    """`_word_tallies` from the root, on the ball `_run_iterative` gives it."""
    return saw._word_tallies(g, h, g.root, saw._cayley_ball(g, g.root, n), n)


def _word_sum(g, rise):
    """The word sum that adds rise[label] along an edge labelled label,
    and 0 along the other labels of `g`."""
    return GammaHeight(tuple((label, rise.get(label, 0)) for _, label in g.neighbors(g.root)))


@pytest.mark.parametrize("model", ["tree3", "lamplighter"])
def test_word_tallies_equal_the_frozen_walk(model):
    g = resolve_model(model)
    for h in (None, resolve_height(g, "ghf")):
        hits, nodes = oracles.reference_walk(g, h, (g.root,), 19)
        for n in (16, 19):
            assert _word_route(g, h, n) == (hits[: n + 1], nodes[: n + 1]), (h, n)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (4, 4), (5, 2), (6, 8)])
def test_word_tallies_on_tori(p, q):
    # Z_2 has parallel x and X edges, so xx and xX both close. Every size
    # has wrap-around cycles x^p and y^q of length <= n, and Z_6 x Z_8
    # has x^6 at n = 6, 7 and y^8 at n = 8, 9, whose middle vertices lie
    # at distance n // 2. A word sum is carried along each walk as
    # `_walk` carries it, though no height on a finite group is well
    # defined.
    g = oracles.TorusOracle(p, q)
    heights = (None, _word_sum(g, {"x": 1, "X": -1}),
               _word_sum(g, {"x": 2, "X": -2, "y": 1, "Y": -1}))
    for n in range(saw.SPLIT_DEPTH + 1, 10):
        for h in heights:
            want = oracles.reference_walk(g, h, (g.root,), n)
            assert _word_route(g, h, n) == want, (h, n)


def _own_ball_refused(monkeypatch, n):
    """Make `_compile_ball` refuse a count's own ball, of radius `n`;
    the certification ball, of radius max(n // 2, 3) + 1, still builds."""
    assert n > max(n // 2, saw.SPLIT_DEPTH) + 1
    compile_ball = saw._compile_ball
    monkeypatch.setattr(saw, "_compile_ball", lambda g, h, start, radius: (
        None if radius == n else compile_ball(g, h, start, radius)))


def _word_route_calls(monkeypatch):
    """Record what each `_word_tallies` call returns."""
    calls = []
    word_tallies = saw._word_tallies
    monkeypatch.setattr(saw, "_word_tallies",
                        lambda *args: calls.append(word_tallies(*args)) or calls[-1])
    return calls


def _assert_word_route_tables(monkeypatch, g, heights, n, budgets):
    """The tables of the word route equal those of the orbit route or
    the oracle walk, at 1 and 2 threads and under `budgets`; the route
    is taken by every count and starts no pool."""
    monkeypatch.delenv("SAWLAB_BUDGET", raising=False)
    starts = []
    monkeypatch.setattr(saw, "ProcessPoolExecutor", _counting_pool(starts, [], [0]))
    runs = [(h, threads, budget) for h in heights for threads in (1, 2) for budget in budgets]
    calls = _word_route_calls(monkeypatch)
    words = [_table_fields(saw._run_iterative(g, n, None, t, b, h)) for h, t, b in runs]
    assert len(calls) == len(runs) and None not in calls and not starts
    _without_words(monkeypatch)
    walked = [_table_fields(saw._run_iterative(g, n, None, t, b, h)) for h, t, b in runs]
    assert words == walked


@pytest.mark.parametrize("model,n", [("zd1", 12), ("zd2", 8), ("zd3", 6)])
def test_word_route_past_the_own_ball_of_a_one_orbit_cover(model, n, monkeypatch):
    g = resolve_model(model)
    ghf = _word_sum(g, {"x": 1, "X": -1, "y": 1, "Y": -1})
    for h in (None, ghf):
        assert _word_route(g, h, n) == oracles.reference_walk(g, h, (g.root,), n), h
    _own_ball_refused(monkeypatch, n)
    sigma = OEIS_SIGMA.get(model, [1] + [2] * n)[: n + 1]
    assert count_saws(g, n).series() == sigma
    _assert_word_route_tables(monkeypatch, g, (None, ghf), n, (None, 5000, 300))


@pytest.mark.parametrize("model", ["tree3", "lamplighter"])
def test_word_route_tables_equal_the_walked_ones(model, monkeypatch):
    g = resolve_model(model)
    _assert_word_route_tables(monkeypatch, g, (None, resolve_height(g, "ghf")), 16, (None, 5000))


def test_word_route_is_taken_through_its_cap(monkeypatch):
    monkeypatch.delenv("SAWLAB_BUDGET", raising=False)
    calls = _word_route_calls(monkeypatch)
    passes = []
    real_pass = saw._real_pass
    monkeypatch.setattr(saw, "_real_pass", lambda *args: passes.append(1) or real_pass(*args))
    # tree3 and lamplighter count words through n = 19 (sigma_19 and
    # b_19 as the unreduced walk reads them) and walk no pass.
    for model, sigma, b in (("tree3", 786432, 39743), ("lamplighter", 723600, 37038)):
        g = resolve_model(model)
        for n in (16, 19):
            calls.clear()
            saws = count_saws(g, n)
            bridges = count_bridges(g, resolve_height(g, "ghf"), n)
            assert len(calls) == 2 and None not in calls and not passes, (model, n)
        assert (saws[19], bridges[19]) == (sigma, b)
    # lamplighter's automaton at n = 20 has 7,937 states and heisenberg's
    # at n = 10 over 100,000: both counts give up on words and walk one
    # prefix per orbit, with the unreduced walk's sigma_n.
    found = []
    prefix_orbits = saw._prefix_orbits
    monkeypatch.setattr(saw, "_prefix_orbits",
                        lambda *args: found.append(prefix_orbits(*args)) or found[-1])
    for model, n, sigma, orbits in (("lamplighter", 20, 1435970, 6),
                                    ("heisenberg", 10, 9200462, 20)):
        calls.clear(), passes.clear(), found.clear()
        assert count_saws(resolve_model(model), n)[n] == sigma
        assert calls == [None] and passes and len(found[0]) == orbits, model
    # The cap: lamplighter's automaton at n = 16 has 671 states.
    g = resolve_model("lamplighter")
    ball = saw._cayley_ball(g, g.root, 16)
    monkeypatch.setattr(saw, "MAX_BALL_VERTICES", 671)
    assert saw._word_tallies(g, None, g.root, ball, 16) is not None
    monkeypatch.setattr(saw, "MAX_BALL_VERTICES", 670)
    assert saw._word_tallies(g, None, g.root, ball, 16) is None


class _CaseBlindTorus(oracles.TorusOracle):
    """A torus whose x and X edges are both labelled x, and y and Y y."""

    def neighbors(self, v):
        return tuple((w, label.lower()) for w, label in super().neighbors(v))


def test_word_route_needs_one_edge_per_label(monkeypatch):
    # A word names one walk only if no row repeats a label: here it gives
    # up, and the count walks the oracle.
    g = _CaseBlindTorus(4, 5)
    assert _word_route(g, None, 6) is None
    _own_ball_refused(monkeypatch, 6)
    calls = _word_route_calls(monkeypatch)
    hits, _ = oracles.reference_walk(g, None, (g.root,), 6)
    assert count_saws(g, 6).series()[1:] == hits[1:] and calls == [None]


@pytest.mark.parametrize("model,reference", [
    ("tree3", oracles.Tree3WordOracle()),
    ("lamplighter", oracles.LamplighterSetOracle()),
])
def test_int_vertex_walks_match_the_reference_oracles(model, reference):
    # The oracle walker over int-encoded vertices enters the same nodes
    # and counts the same walks at every depth as over words and lamp sets.
    g = resolve_model(model)
    for h in (None, resolve_height(g, "ghf")):
        got = saw._walk(g, h, (g.root,), 12)
        assert got == saw._walk(reference, h, (reference.root,), 12), (model, h)


# A001411 and A001412 (OEIS): self-avoiding walks on Z^2 and Z^3.
OEIS_SIGMA = {
    "zd2": [1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932,
            881500, 2374444],
    "zd3": [1, 6, 30, 150, 726, 3534, 16926, 81390, 387966, 1853886, 8809878],
}


@pytest.mark.parametrize("model", sorted(OEIS_SIGMA))
def test_oeis_series_on_one_and_two_threads(model):
    g = resolve_model(model)
    n = len(OEIS_SIGMA[model]) - 1
    serial = count_saws(g, n, threads=1)
    assert serial.series() == OEIS_SIGMA[model] and not serial.partial
    assert _table_fields(count_saws(g, n, threads=2)) == _table_fields(serial)


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
        count_saws(g, 8), count_bridges(g, resolve_height(g, "identity"), 8),
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
    doc = json.loads(render_json(count_saws(g, 3).to_json_dict()))
    assert doc["counts"] == {"0": 1, "1": 4, "2": 12, "3": 36}
    assert doc["kind"] == "saw" and doc["model"] == "zd2"
    assert "generated_at" not in doc
    stamped = json.loads(render_json(count_saws(g, 3).to_json_dict(), timestamp="T"))
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

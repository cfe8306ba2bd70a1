"""Rooted ball isomorphism and quotient-family locality scans."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, reject, settings, strategies as st

import oracles
from sawlab.graphs import (
    BudgetExceeded,
    GraphError,
    PGOracle,
    ball,
    periodic_graph_from_document,
    resolve_model,
)
from sawlab.locality import (
    _joint_refine,
    ball_iso,
    count_agreement,
    iso_radius,
    locality_scan,
)
from sawlab.saw import CountTable, count_bridges, count_saws, render_json
from sawlab.heights import PeriodicHeight, resolve_height
from test_saw import voltage_documents

# The x coordinate of zd2: the periodic height f = 0, lambda = e_1.
X = PeriodicHeight((0,), (1, 0), name="x")

# largest k with B(zd2, k) isomorphic to B(cylinder_m, k), by exhaustive check
TRUE_K = {4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}


def test_iso_radius_frozen_table():
    g = resolve_model("zd2")
    for m, k in TRUE_K.items():
        res = iso_radius(g, resolve_model(f"cylinder{m}"), bound=6)
        assert res.k == k, m
        assert not res.at_least and not res.budget_hit
        assert res.display() == str(k)
        # K_induced <= K_walk <= K_induced + 1; the walk ball gains a
        # radius exactly at odd m
        walk = iso_radius(g, resolve_model(f"cylinder{m}"), bound=6, convention="walk")
        assert walk.k == (m - 1) // 2 and k <= walk.k <= k + 1, m
        assert not walk.at_least and not walk.budget_hit


def test_iso_radius_symmetry():
    for m in (4, 7, 9):
        a = resolve_model("zd2")
        b = resolve_model(f"cylinder{m}")
        assert iso_radius(a, b, 6).k == iso_radius(b, a, 6).k


def test_verdicts_monotone_and_final():
    res = iso_radius(resolve_model("zd2"), resolve_model("cylinder6"), bound=6)
    assert res.verdicts == {0: True, 1: True, 2: True, 3: False}


def test_self_iso_hits_bound():
    res = iso_radius(resolve_model("zd2"), resolve_model("zd2"), bound=5)
    assert res.at_least and res.k == 5
    assert res.display() == ">= 5"
    assert all(res.verdicts.values())


def test_degree_mismatch_fails_at_radius_one():
    res = iso_radius(resolve_model("tree3"), resolve_model("zd2"), bound=4)
    assert res.k == 0 and res.verdicts[1] is False


def test_ball_iso_matches_reference_matcher():
    pairs = [("zd2", "cylinder4"), ("zd2", "cylinder6"), ("zd2", "cylinder8")]
    nbr = {
        "zd2": oracles.zd_neighbors(2),
        "cylinder4": oracles.cylinder_neighbors(4),
        "cylinder6": oracles.cylinder_neighbors(6),
        "cylinder8": oracles.cylinder_neighbors(8),
    }
    for name_a, name_b in pairs:
        for k in (1, 2, 3):
            got, _ = ball_iso(ball(resolve_model(name_a), k), ball(resolve_model(name_b), k))
            want = oracles.rooted_isomorphic(
                oracles.coordinate_ball(nbr[name_a], (0, 0), k),
                oracles.coordinate_ball(nbr[name_b], (0, 0), k),
            )
            assert got == want, (name_a, name_b, k)


def test_walk_ball_iso_matches_reference_matcher():
    zd2 = oracles.zd_neighbors(2)
    for m in range(4, 10):
        cyl = oracles.cylinder_neighbors(m)
        for k in range(1, 6):
            got, _ = ball_iso(ball(resolve_model("zd2"), k, convention="walk"),
                              ball(resolve_model(f"cylinder{m}"), k, convention="walk"))
            want = oracles.rooted_isomorphic(
                oracles.walk_filtered(oracles.coordinate_ball(zd2, (0, 0), k), k),
                oracles.walk_filtered(oracles.coordinate_ball(cyl, (0, 0), k), k),
            )
            assert got == want, (m, k)


def test_witness_is_a_distance_preserving_isomorphism():
    g_a = resolve_model("zd2")
    g_b = resolve_model("cylinder8")
    ball_a = ball(g_a, 3)
    ball_b = ball(g_b, 3)
    ok, wit = ball_iso(ball_a, ball_b)
    assert ok
    idx_a = {key.decode(): i for i, key in enumerate(ball_a.keys)}
    idx_b = {key.decode(): i for i, key in enumerate(ball_b.keys)}
    assert len(wit) == ball_a.vertex_count() == ball_b.vertex_count()
    mapping = {}
    for ka, kb in wit:
        i, j = idx_a[ka], idx_b[kb]
        assert i not in mapping
        mapping[i] = j
    assert sorted(mapping.values()) == list(range(ball_b.vertex_count()))
    assert all(ball_a.distances[i] == ball_b.distances[j] for i, j in mapping.items())
    edges_a = {frozenset((mapping[i], mapping[j])) for i, j in ball_a.edges}
    edges_b = {frozenset((i, j)) for i, j in ball_b.edges}
    assert edges_a == edges_b


def test_ball_iso_backtracks_without_recursion():
    # The radius-10 ball of Z^3 has 1561 vertices, more than the default
    # recursion limit; the backtracking keeps its own stack.
    g = resolve_model("zd3")
    b = ball(g, 10)
    ok, wit = ball_iso(b, b)
    assert ok and len(wit) == b.vertex_count() == 1561
    assert iso_radius(g, g, 10).k == 10


def test_ladder_dihedral_matches_cylinder():
    for m in (4, 7):
        a = resolve_model(f"ladder_dihedral{m}")
        b = resolve_model(f"cylinder{m}")
        assert iso_radius(a, b, 4).at_least
        assert count_saws(a, 6).series() == count_saws(b, 6).series()


def test_count_agreement_windows():
    g = resolve_model("zd2")
    sig = count_saws(g, 8)
    bri = count_bridges(g, X, 8)
    for m in (4, 5, 6, 7, 8):
        member = resolve_model(f"cylinder{m}")
        msig = count_saws(member, 8)
        mbri = count_bridges(member, resolve_height(member, "x"), 8)
        agree, disc = count_agreement(sig, bri, msig, mbri, check_up_to=TRUE_K[m])
        # walks of length < m cannot wrap, so agreement reaches m - 1
        assert agree == min(m - 1, 8), m
        assert disc == []


def test_count_agreement_reports_discrepancies():
    g = resolve_model("zd2")
    sig = count_saws(g, 5)
    bri = count_bridges(g, X, 5)
    msig = count_saws(resolve_model("cylinder4"), 5)
    cyl = resolve_model("cylinder4")
    mbri = count_bridges(cyl, resolve_height(cyl, "x"), 5)
    agree, disc = count_agreement(sig, bri, msig, mbri, check_up_to=5)
    assert agree == 3
    assert any(d["kind"] == "saw" and d["n"] == 4 for d in disc)
    for d in disc:
        assert d["base"] != d["member"] and d["n"] > 3


def _agreement_tables(base_sigma, base_bridge, member_sigma, member_bridge, tops):
    """Base and member sigma and bridge tables, in `count_agreement`'s
    order, each cut at its own high_water."""
    series = (("saw", base_sigma), ("bridge", base_bridge),
              ("saw", member_sigma), ("bridge", member_bridge))
    return [CountTable(kind=kind, model="synthetic", n_max=len(counts) - 1,
                       counts=dict(enumerate(counts)), high_water=top)
            for (kind, counts), top in zip(series, tops)]


@st.composite
def agreement_tables(draw, length=10):
    """Four tables over one random base series pair, the member's with
    random counts changed, each with its own high_water."""
    base = [[1] + draw(st.lists(st.integers(1, 50), min_size=length, max_size=length))
            for _ in range(2)]
    member = [list(counts) for counts in base]
    for counts in member:
        for n in draw(st.lists(st.integers(1, length), max_size=3)):
            counts[n] += draw(st.integers(1, 3))
    tops = draw(st.lists(st.integers(0, length), min_size=4, max_size=4))
    return _agreement_tables(*base, *member, tops)


# Mismatches at n = 2 (saw), 4 (bridge) and 5 (saw), four unequal tops.
UNEQUAL_TOPS = _agreement_tables([1, 4, 12, 36, 100, 284], [1, 1, 3, 7, 17, 41],
                                 [1, 4, 13, 36, 100, 285], [1, 1, 3, 7, 18, 41],
                                 (5, 4, 5, 5))


@settings(max_examples=300, deadline=None)
@given(agreement_tables(), st.integers(0, 10))
@example(UNEQUAL_TOPS, 3)
def test_count_agreement_equals_the_loop_over_every_n(tables, check_up_to):
    assert (count_agreement(*tables, check_up_to=check_up_to)
            == oracles.reference_count_agreement(*tables, check_up_to))


def test_count_agreement_reads_the_common_range_and_the_window():
    # The common top is 4, so n = 5 is not compared; n = 4 lies past the
    # window of 3, so only n = 2 is reported.
    assert count_agreement(*UNEQUAL_TOPS, check_up_to=3) == (
        1, [{"n": 2, "kind": "saw", "base": 12, "member": 13}])
    assert count_agreement(*UNEQUAL_TOPS, check_up_to=9)[1][1] == {
        "n": 4, "kind": "bridge", "base": 17, "member": 18}


def test_locality_scan_structure():
    rep = locality_scan(
        resolve_model("zd2"),
        "cylinder",
        n_max=6,
        m_list=[4, 6, 8],
    )
    assert rep.rank_precondition == {
        "presentation": "zd2",
        "rank": 2,
        "generators": 4,
        "required": "rank < 3",
        "satisfied": True,
    }
    assert [r.m for r in rep.records] == [4, 6, 8]
    for r in rep.records:
        assert r.k == TRUE_K[r.m]
        assert r.discrepancies == []
        assert r.agree_up_to >= r.k
        assert r.agree_up_to == min(r.m - 1, 6)
        assert len(r.table_digest) == 16
        int(r.table_digest, 16)
    # by m = 8 the window covers every counted length, so the member's
    # tables and bounds coincide with the base ones
    last = rep.records[-1]
    assert (last.lower_bound, last.upper_bound) == (rep.base_lower, rep.base_upper)


def test_scan_stabilizes_beyond_double_window():
    rep = locality_scan(resolve_model("zd2"), "cylinder", n_max=3, m_list=[7, 8, 9, 10])
    digests = {r.table_digest for r in rep.records}
    assert len(digests) == 1
    for r in rep.records:
        assert (r.lower_bound, r.upper_bound) == (rep.base_lower, rep.base_upper)
        assert r.agree_up_to == 3 and r.discrepancies == []


def test_scan_serialization():
    rep = locality_scan(resolve_model("zd2"), "cylinder", n_max=4, m_list=[4, 8])
    csv = rep.to_csv().splitlines()
    assert csv[0] == "m,K,agree_up_to,lower_bound,upper_bound,table_digest"
    assert len(csv) == 3 and csv[1].startswith("4,1,3,")
    doc = json.loads(render_json(rep.to_json_dict()))
    assert doc["base_model"] == "zd2" and doc["family"] == "cylinder"
    # zd2 is a presentation preset, so the scan carries its precondition.
    assert doc["rank_precondition"] == {
        "presentation": "zd2",
        "rank": 2,
        "generators": 4,
        "required": "rank < 3",
        "satisfied": True,
    }
    assert [r["K"] for r in doc["records"]] == [1, 3]
    assert "generated_at" not in doc
    stamped = json.loads(render_json(rep.to_json_dict(), timestamp="T"))
    assert stamped["generated_at"] == "T"


def test_scan_of_a_base_that_is_no_preset_has_no_rank_precondition():
    rep = locality_scan(resolve_model("cylinder9"), "cylinder", n_max=3, m_list=[5])
    assert rep.family == "cylinder" and rep.records[0].k == 1
    assert rep.rank_precondition is None


def test_ball_iso_budget():
    from sawlab.graphs import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        ball(resolve_model("zd2"), 4, max_vertices=10)
    res = iso_radius(resolve_model("zd2"), resolve_model("zd2"), 6, max_vertices=30)
    assert res.budget_hit and res.at_least and res.k < 6
    assert res.display() == f">= {res.k}"


# ---------------------------------------------------------------------------
# iso_radius against the ascending loop, and its work bound
# ---------------------------------------------------------------------------

# Two pairs of periodic graphs on Z, each root a pendant vertex, whose
# balls agree in vertex and edge counts well beyond K (1 and 2): found by
# a random search over small documents, they make iso_radius bisect
# below its candidate radius, which no catalog pair does.
SAME_SIZES = {
    "same_sizes_k1_a": {"orbits": 3, "dim": 1, "edges": [
        [2, 1, [-1]], [1, 3, [0]], [1, 1, [1]], [3, 3, [-1]]]},
    "same_sizes_k1_b": {"orbits": 3, "dim": 1, "edges": [
        [2, 1, [0]], [1, 3, [1]], [1, 1, [-1]], [3, 2, [0]]]},
    "same_sizes_k2_a": {"orbits": 4, "dim": 1, "edges": [
        [4, 3, [0]], [2, 4, [-1]], [4, 3, [1]], [2, 2, [1]], [2, 3, [-1]], [1, 2, [0]]]},
    "same_sizes_k2_b": {"orbits": 4, "dim": 1, "edges": [
        [3, 3, [1]], [1, 2, [0]], [2, 2, [1]], [4, 3, [1]], [2, 4, [0]], [3, 2, [-1]]]},
}


def _model(name):
    doc = SAME_SIZES.get(name)
    if doc is None:
        return resolve_model(name)
    return PGOracle(periodic_graph_from_document(doc), name)


ISO_PAIRS = [
    ("same_sizes_k1_a", "same_sizes_k1_b"),
    ("same_sizes_k2_a", "same_sizes_k2_b"),
    ("hexagonal", "hexagonal"),
    ("square_octagon", "square_octagon"),
    ("tree3", "tree3"),
    ("lamplighter", "lamplighter"),
    ("cylinder5", "ladder_dihedral5"),
    ("cylinder6", "ladder_dihedral6"),
    ("zd2", "cylinder5"),
    ("zd2", "cylinder8"),
    ("tree3", "zd2"),
]


def _biting_caps(g_a, g_b, bound):
    """Vertex caps that first stop a ball at radius 1, mid-range and at
    the bound, on either side."""
    caps = set()
    for r in {1, max(1, bound // 2), bound}:
        for g in (g_a, g_b):
            caps.add(ball(g, r).vertex_count() - 1)
    return sorted(caps)


@pytest.mark.parametrize("convention", ["induced", "walk"])
@pytest.mark.parametrize("pair", ISO_PAIRS, ids="-".join)
def test_iso_radius_matches_ascending_loop(pair, convention):
    from sawlab.graphs import BudgetExceeded

    g_a, g_b = (_model(name) for name in pair)
    for bound in range(9):
        caps = [None] + (_biting_caps(g_a, g_b, bound) if bound else [])
        for cap in caps:
            options = {"convention": convention}
            if cap is not None:
                options["max_vertices"] = cap
            want = oracles.iso_radius_reference(
                ball, ball_iso, BudgetExceeded, g_a, g_b, bound, **options
            )
            res = iso_radius(g_a, g_b, bound, **options)
            got = dict(k=res.k, at_least=res.at_least, verdicts=res.verdicts,
                       witness=res.witness, budget_hit=res.budget_hit)
            assert got == want, (bound, cap)
            assert list(res.verdicts) == list(want["verdicts"])


def test_iso_radius_grows_once_and_bisects(monkeypatch):
    import math

    from sawlab import graphs, locality

    growths = []
    checks = []
    init = graphs.BallGrowth.__init__
    iso_balls = locality.ball_iso

    def counting_init(self, g, *args, **kwargs):
        growths.append(g.name)
        init(self, g, *args, **kwargs)

    def counting_iso(ba, bb):
        checks.append(ba.radius)
        return iso_balls(ba, bb)

    monkeypatch.setattr(graphs.BallGrowth, "__init__", counting_init)
    monkeypatch.setattr(locality, "ball_iso", counting_iso)
    most = 0
    for pair in ISO_PAIRS + [("zd2", "cylinder7"), ("cylinder7", "ladder_dihedral7")]:
        g_a, g_b = (_model(name) for name in pair)
        for convention in ("induced", "walk"):
            for bound in (0, 1, 2, 5, 8):
                growths.clear()
                checks.clear()
                iso_radius(g_a, g_b, bound, convention=convention)
                assert growths == [g_a.name, g_b.name], (pair, bound)
                assert len(checks) <= math.ceil(math.log2(bound + 1)) + 1, (pair, bound)
                most = max(most, len(checks))
    assert most > 1  # some pair fails at its candidate radius and bisects


def test_iso_radius_stops_growing_at_a_size_mismatch():
    # zd2 and tree3 differ at radius 1: the tree must not be grown to
    # the bound (3 * 2**19 vertices at radius 20).
    res = iso_radius(resolve_model("zd2"), resolve_model("tree3"), 20, max_vertices=50)
    assert res.k == 0 and res.verdicts == {0: True, 1: False} and not res.budget_hit


@settings(max_examples=100, deadline=5000)
@given(voltage_documents(), voltage_documents(), st.integers(0, 5),
       st.sampled_from(["induced", "walk"]))
# Random pairs rarely agree in size past the radius where they stop
# being isomorphic; these two always bisect.
@example(SAME_SIZES["same_sizes_k1_a"], SAME_SIZES["same_sizes_k1_b"], 5, "induced")
@example(SAME_SIZES["same_sizes_k2_a"], SAME_SIZES["same_sizes_k2_b"], 5, "walk")
def test_iso_radius_matches_ascending_loop_on_random_covers(doc_a, doc_b, bound, convention):
    from sawlab import locality
    from sawlab.graphs import BudgetExceeded

    g_a, g_b = (PGOracle(periodic_graph_from_document(doc)) for doc in (doc_a, doc_b))
    want = oracles.iso_radius_reference(
        ball, ball_iso, BudgetExceeded, g_a, g_b, bound, convention=convention)
    with mock.patch.object(locality, "ball_iso", wraps=locality.ball_iso) as checks:
        res = iso_radius(g_a, g_b, bound, convention=convention)
    # One check is the candidate radius; more are the bisection below it.
    event("bisected" if checks.call_count > 1 else "no bisection")
    got = dict(k=res.k, at_least=res.at_least, verdicts=res.verdicts,
               witness=res.witness, budget_hit=res.budget_hit)
    assert got == want


def _rewired(doc):
    """The documents that one voltage sign flip, or one swap of the far
    ends of two edges, makes from `doc`. A swap keeps every orbit's
    degree, so the balls often keep equal sizes past the radius where
    they stop being isomorphic."""
    edges = doc["edges"]
    for i, (_o1, _o2, t) in enumerate(edges):
        for k, x in enumerate(t):
            if x:
                flipped = [[o1, o2, list(u)] for o1, o2, u in edges]
                flipped[i][2][k] = -x
                yield dict(doc, edges=flipped)
    for i, j in itertools.combinations(range(len(edges)), 2):
        swapped = [[o1, o2, list(u)] for o1, o2, u in edges]
        swapped[i][1], swapped[j][1] = swapped[j][1], swapped[i][1]
        yield dict(doc, edges=swapped)


SAME_SIZE_BOUND = 5


@st.composite
def same_size_pairs(draw):
    """(doc a, doc b, convention): b is one of `_rewired(a)`, the first
    from a drawn place on whose balls are not isomorphic within
    SAME_SIZE_BOUND and agree in vertex and edge counts one radius past
    K. So `iso_radius` checks past K and must bisect back to it."""
    doc_a = draw(voltage_documents(orbits=(3, 5), dims=(1, 1), extras=6))
    convention = draw(st.sampled_from(["induced", "walk"]))
    candidates = list(_rewired(doc_a))
    start = draw(st.integers(0, len(candidates) - 1))
    for doc_b in candidates[start:] + candidates[:start]:
        try:
            g_a, g_b = (PGOracle(periodic_graph_from_document(doc)) for doc in (doc_a, doc_b))
        except GraphError:  # a swap made a loop of voltage 0
            continue
        want = oracles.iso_radius_reference(
            ball, ball_iso, BudgetExceeded, g_a, g_b, SAME_SIZE_BOUND, convention=convention)
        k = want["k"]
        if not want["at_least"] and len({
            ball(g, k + 1, convention=convention).sizes(convention)[k + 1] for g in (g_a, g_b)
        }) == 1:
            return doc_a, doc_b, convention
    reject()


def test_iso_radius_bisects_on_pairs_that_agree_in_size_past_k():
    from sawlab import locality

    bisected = []

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(same_size_pairs())
    def check(pair):
        doc_a, doc_b, convention = pair
        g_a, g_b = (PGOracle(periodic_graph_from_document(doc)) for doc in (doc_a, doc_b))
        want = oracles.iso_radius_reference(
            ball, ball_iso, BudgetExceeded, g_a, g_b, SAME_SIZE_BOUND, convention=convention)
        with mock.patch.object(locality, "ball_iso", wraps=locality.ball_iso) as checks:
            res = iso_radius(g_a, g_b, SAME_SIZE_BOUND, convention=convention)
        got = dict(k=res.k, at_least=res.at_least, verdicts=res.verdicts,
                   witness=res.witness, budget_hit=res.budget_hit)
        assert got == want
        bisected.append(checks.call_count > 1)

    check()
    # A pair that agrees in size at K + 1 makes the candidate radius pass
    # K, and bisects unless K = 0 and the candidate is 1.
    assert sum(bisected) > 0, bisected


# ---------------------------------------------------------------------------
# Incremental refinement against the full recomputation
# ---------------------------------------------------------------------------


def _refine_inputs(ba, bb):
    """`ball_iso`'s refinement inputs: adjacency and (distance, degree)."""
    adj_a, adj_b = ba.adjacency(), bb.adjacency()
    return (adj_a, adj_b,
            [(ba.distances[i], len(row)) for i, row in enumerate(adj_a)],
            [(bb.distances[i], len(row)) for i, row in enumerate(adj_b)])


@settings(max_examples=100, deadline=None)
@given(voltage_documents(), voltage_documents(), st.booleans(), st.integers(0, 5),
       st.sampled_from(["induced", "walk"]))
def test_joint_refine_names_colors_as_the_full_recomputation(doc_a, doc_b, same, radius, convention):
    g_a = PGOracle(periodic_graph_from_document(doc_a))
    g_b = g_a if same else PGOracle(periodic_graph_from_document(doc_b))
    inputs = _refine_inputs(*(ball(g, radius, convention=convention) for g in (g_a, g_b)))
    assert _joint_refine(*inputs) == oracles.joint_refine_reference(*inputs)


@pytest.mark.parametrize("convention", ["induced", "walk"])
@pytest.mark.parametrize("pair,radius", [
    (("hexagonal", "hexagonal"), 22),
    (("square_octagon", "square_octagon"), 22),
    (("lamplighter", "lamplighter"), 9),
    (("tree3", "tree3"), 8),
    (("cylinder7", "ladder_dihedral7"), 22),
], ids=lambda p: "-".join(p) if isinstance(p, tuple) else str(p))
def test_joint_refine_names_colors_as_the_full_recomputation_on_benchmark_balls(
        pair, radius, convention):
    inputs = _refine_inputs(*(ball(resolve_model(m), radius, convention=convention) for m in pair))
    assert _joint_refine(*inputs) == oracles.joint_refine_reference(*inputs)

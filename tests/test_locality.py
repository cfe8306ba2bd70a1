"""Rooted ball isomorphism and quotient-family locality scans."""

import json
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from sawlab.graphs import PGOracle, ball, periodic_graph_from_document, resolve_model
from sawlab.locality import (
    ball_iso,
    count_agreement,
    iso_radius,
    locality_scan,
)
from sawlab.saw import count_bridges, count_saws, render_json
from sawlab.heights import CoordinateHeight
from test_saw import voltage_documents

X = CoordinateHeight(0, label="x")

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
        mbri = count_bridges(member, X, 8)
        agree, disc = count_agreement(sig, bri, msig, mbri, check_up_to=TRUE_K[m])
        # walks of length < m cannot wrap, so agreement reaches m - 1
        assert agree == min(m - 1, 8), m
        assert disc == []


def test_count_agreement_reports_discrepancies():
    g = resolve_model("zd2")
    sig = count_saws(g, 5)
    bri = count_bridges(g, X, 5)
    msig = count_saws(resolve_model("cylinder4"), 5)
    mbri = count_bridges(resolve_model("cylinder4"), X, 5)
    agree, disc = count_agreement(sig, bri, msig, mbri, check_up_to=5)
    assert agree == 3
    assert any(d["kind"] == "saw" and d["n"] == 4 for d in disc)
    for d in disc:
        assert d["base"] != d["member"] and d["n"] > 3


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


def test_scan_accepts_callable_family():
    fam = lambda m: resolve_model(f"cylinder{m}")
    rep = locality_scan(resolve_model("zd2"), fam, n_max=3, m_list=[5])
    assert rep.records[0].k == 1
    # A base model that is no presentation preset has no precondition.
    rep = locality_scan(resolve_model("cylinder9"), fam, n_max=3, m_list=[5])
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

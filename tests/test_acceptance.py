"""Acceptance gate: one test per shipped guarantee, exact arithmetic throughout.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Criterion 8 documents a known discrepancy for odd cylinder
circumferences; see the assertion message there.
"""

import time
from fractions import Fraction

import oracles
from sawlab._linalg import integer_kernel
from sawlab.graphs import PGOracle, resolve_model
from sawlab.heights import (
    GammaHeight,
    LevelHeight,
    PeriodicHeight,
    increase_repair,
    resolve_height,
    verify,
)
from sawlab.locality import locality_scan
from sawlab.presentations import choose_ghf, coefficient_matrix, preset_presentation
from sawlab.saw import (
    CountTable,
    check_multiplicativity,
    count_bridges,
    count_saws,
    mu_bounds,
    render_json,
)

F = Fraction
# The x coordinate of zd2: the periodic height f = 0, lambda = e_1.
X = PeriodicHeight((0,), (1, 0), name="x")

GHF_PRESETS = ["zd2", "zd3", "tree3", "heisenberg", "hexagonal", "lamplighter"]


def clipped(table: CountTable, n: int) -> CountTable:
    return CountTable(
        kind=table.kind,
        model=table.model,
        n_max=n,
        counts={k: table.counts[k] for k in range(n + 1)},
        height_name=table.height_name,
        high_water=n,
    )


def test_criterion_1_rank_and_ghf_verdicts():
    t0 = time.monotonic()
    expected = {
        "zd2": (2, True),
        "zd3": (3, True),
        "tree3": (2, True),
        "heisenberg": (4, True),
        "square_octagon": (3, False),
        "hexagonal": (2, True),
        "dihedral": (None, False),
        "higman": (None, False),
        "sl2z": (None, False),
        "lamplighter": (2, True),
    }
    for name, (rank, exists) in expected.items():
        p = preset_presentation(name)
        kernel = integer_kernel(coefficient_matrix(p), len(p.generators))
        got_rank = len(p.generators) - len(kernel)
        if rank is not None:
            assert got_rank == rank, f"{name}: rank {got_rank} != {rank}"
        else:
            assert got_rank == len(p.generators), name
        assert (choose_ghf(kernel) is not None) is exists, name
        if name == "lamplighter":
            assert len(kernel) == 1  # Betti
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_emitted_ghfs_well_defined_and_harmonic():
    t0 = time.monotonic()
    for name in GHF_PRESETS:
        p = preset_presentation(name)
        gamma = choose_ghf(integer_kernel(coefficient_matrix(p), len(p.generators)))
        assert gamma is not None, name
        # verify raises HeightConflict if a vertex of its ball gets two heights.
        h = GammaHeight(tuple(zip(p.generators, gamma)))
        check = verify(resolve_model(name), h, radius=4)
        assert check.all_zero and check.uniform_defect == 0, name
        assert check.checked > 0
    assert time.monotonic() - t0 < 5.0


def test_criterion_3_saw_counts_and_submultiplicativity():
    t0 = time.monotonic()
    line = count_saws(resolve_model("zd1"), 10)
    assert line.series() == [1] + [2] * 10

    tree = count_saws(resolve_model("tree3"), 10)
    assert tree.series() == [1] + [3 * 2 ** (n - 1) for n in range(1, 11)]

    g = resolve_model("zd2")
    nbrs = lambda v: [w for w, _ in g.neighbors(v)]
    reference = oracles.brute_saw_counts(nbrs, g.root, 10)
    square = count_saws(g, 10)
    assert square.series() == reference

    for table in (line, tree, square):
        rep = check_multiplicativity(table)
        assert rep.ok and rep.pairs_checked > 0, table.model
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_bridge_counts_and_supermultiplicativity():
    t0 = time.monotonic()
    g = resolve_model("zd2")
    sigma = count_saws(g, 10)
    bridge = count_bridges(g, X, 10)
    assert all(bridge[n] <= sigma[n] for n in range(11))

    # m = n gives b_2n >= b_n^2: the roots grow along the doubling subsequence.
    rep = check_multiplicativity(bridge)
    assert rep.ok and rep.pairs_checked > 0

    zd1 = resolve_model("zd1")
    line = count_bridges(zd1, resolve_height(zd1, "identity"), 10)
    assert line.series() == [1] * 11

    assert time.monotonic() - t0 < 60.0


def test_criterion_5_bound_sandwich_tightens():
    t0 = time.monotonic()
    g = resolve_model("zd2")
    sigma = count_saws(g, 12)
    bridge = count_bridges(g, X, 12)

    at10 = mu_bounds(clipped(sigma, 10), clipped(bridge, 10), precision=12)
    lower, upper = F(at10.best_lower), F(at10.best_upper)
    assert F(2) < lower < upper < F(3)

    gap6 = mu_bounds(clipped(sigma, 6), clipped(bridge, 6), precision=12).gap()
    gap12 = mu_bounds(sigma, bridge, precision=12).gap()
    assert gap12 < gap6
    assert time.monotonic() - t0 < 600.0


def test_criterion_6_harmonic_extension_and_integer_repair():
    t0 = time.monotonic()
    line_pg = resolve_model("dihedral_line").pg
    h_line = increase_repair(line_pg)
    # the repaired height enumerates the line: psi is the identity on Z
    for k in range(-50, 51):
        assert h_line.at((1, (k,))) == 2 * k
        assert h_line.at((2, (k,))) == 2 * k + 1
    assert verify(PGOracle(line_pg, "dihedral_line"), h_line, radius=4).ok

    so = resolve_model("square_octagon")
    h_so = increase_repair(so.pg)
    assert all(isinstance(x, int) for x in h_so.f + h_so.lam)
    check = verify(so, h_so, radius=4)
    assert check.ok, check.failures
    assert check.all_zero and check.uniform_defect == 0
    assert time.monotonic() - t0 < 5.0


def test_criterion_7_grandparent_defect_seven_eighths():
    t0 = time.monotonic()
    g = resolve_model("grandparent")
    h = LevelHeight()
    check = verify(g, h, radius=4)
    assert check.ok, check.failures
    assert check.uniform_defect == F(7, 8)
    assert set(check.defect_values) == {F(7, 8)}
    assert check.checked > 500
    assert verify(g, h, radius=2).d == 2
    assert time.monotonic() - t0 < 5.0


def test_criterion_8_locality_radius_and_count_agreement():
    t0 = time.monotonic()
    scan = locality_scan(
        resolve_model("zd2"),
        "cylinder",
        n_max=10,
        m_list=[4, 5, 6, 7, 8, 9],
        convention="walk",
    )
    assert scan.rank_precondition is not None
    assert scan.rank_precondition["satisfied"] is True
    assert scan.rank_precondition["rank"] == 2
    assert scan.rank_precondition["required"] == "rank < 3"

    documented = {m: (m - 1) // 2 for m in range(4, 10)}
    for r in scan.records:
        assert r.discrepancies == [], r.m
        # count agreement must reach the documented radius even where the
        # computed ball radius is smaller
        assert r.agree_up_to >= documented[r.m], r.m

    computed = {r.m: r.k for r in scan.records}
    assert time.monotonic() - t0 < 600.0
    assert computed == documented, (
        "largest isomorphic walk-ball radius disagrees with the documented "
        "closed form floor((m-1)/2): the table is K for the walk ball, which "
        "drops the edges joining two vertices at distance exactly k (the "
        "induced ball gives floor(m/2) - 1 at odd m instead)"
    )


def test_criterion_9_thread_count_does_not_change_tables():
    t0 = time.monotonic()
    jobs = [
        ("zd1", None, 10),
        ("tree3", None, 10),
        ("zd2", None, 12),
        ("zd2", X, 12),
        ("zd1", resolve_height(resolve_model("zd1"), "identity"), 10),
    ]
    for model, height, n_max in jobs:
        g = resolve_model(model)
        if height is None:
            one = count_saws(g, n_max, threads=1)
            eight = count_saws(g, n_max, threads=8)
        else:
            one = count_bridges(g, height, n_max, threads=1)
            eight = count_bridges(g, height, n_max, threads=8)
        assert one.to_csv() == eight.to_csv(), model
        assert render_json(one.to_json_dict()) == render_json(eight.to_json_dict()), model
        assert one.nodes_used == eight.nodes_used, model
    assert time.monotonic() - t0 < 600.0

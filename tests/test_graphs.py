"""Graph oracles, periodic graphs, and ball extraction."""

import itertools
import json
from ast import literal_eval

import pytest

from sawlab import graphs
from sawlab.graphs import (
    MODEL_ALIASES,
    MODELS,
    Ball,
    BudgetExceeded,
    GraphError,
    GrandparentOracle,
    HeisenbergOracle,
    LamplighterOracle,
    PeriodicGraph,
    PGOracle,
    Tree3Oracle,
    ball,
    cover_vertex,
    dihedral_line_pg,
    hexagonal_pg,
    periodic_graph_from_document,
    resolve_model,
    square_octagon_pg,
    zd_pg,
)
from sawlab._linalg import lattice_index

import oracles


ALL_MODELS = [
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


def walk(g, labels, start=None):
    v = g.root if start is None else start
    for target in labels:
        for w, label in g.neighbors(v):
            if label == target:
                v = w
                break
        else:
            raise AssertionError(f"no edge {target!r} at {v!r}")
    return v


# ---------------------------------------------------------------------------
# Oracle sanity
# ---------------------------------------------------------------------------


def test_neighbors_symmetric_and_distinct():
    for name in ALL_MODELS:
        g = resolve_model(name)
        b = ball(g, 3)
        for v in b.vertices:
            nbrs = [w for w, _ in g.neighbors(v)]
            assert len(nbrs) == len(set(nbrs)), (name, v)
            assert v not in nbrs, (name, v)
            for w in nbrs:
                assert v in [u for u, _ in g.neighbors(w)], (name, v, w)
            assert len(nbrs) <= g.degree_bound(), name


def test_canonical_keys_injective_on_ball():
    for name in ALL_MODELS:
        g = resolve_model(name)
        b = ball(g, 4)
        assert len(set(b.keys)) == len(b.keys), name


def test_zd_degrees_and_labels():
    g = resolve_model("zd2")
    labels = dict((label, w[1]) for w, label in g.neighbors(g.root))
    assert labels == {"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)}
    assert resolve_model("zd3").degree_bound() == 6
    with pytest.raises(GraphError):
        resolve_model("zd0")


ZD_LABELS = {1: "xX", 2: "xXyY", 3: "xXyYzZ",
             4: ["g0", "G0", "g1", "G1", "g2", "G2", "g3", "G3"]}


@pytest.mark.parametrize("model,reference,origin,labels", [
    *[(f"zd{d}", oracles.zd_neighbors(d), (0,) * d, list(ZD_LABELS[d]))
      for d in (1, 2, 3, 4)],
    ("cylinder5", oracles.cylinder_neighbors(5), (0, 0), ["x", "X", "y", "Y"]),
    ("ladder_dihedral5", oracles.ladder_dihedral_neighbors(5), (0, 0),
     ["s1", "s2", "a", "b"]),
    ("dihedral_line", oracles.dihedral_line_neighbors, 0, ["s1", "s2"]),
])
def test_periodic_catalog_keys_are_the_coordinate_models(model, reference, origin, labels):
    # A migrated model's key prints each cover vertex as its coordinates
    # (lattice point, (x, k), (p, k) or p), and the neighbors come in the
    # coordinate model's order with the same labels, so every ball order,
    # witness and artifact reads as the coordinate model's.
    g = resolve_model(model)
    assert g.canonical_key(g.root) == repr(origin).encode()
    for v in ball(g, 4).vertices:
        old = literal_eval(g.canonical_key(v).decode())
        nbrs = g.neighbors(v)
        assert [label for _, label in nbrs] == labels, (model, v)
        assert [literal_eval(g.canonical_key(w).decode()) for w, _ in nbrs] == list(
            reference(old)
        ), (model, v)


@pytest.mark.parametrize("model,reference", [
    ("tree3", oracles.Tree3WordOracle()),
    ("lamplighter", oracles.LamplighterSetOracle()),
])
def test_int_vertex_oracles_match_the_reference_oracles(model, reference):
    # The int encodings walk the reference oracle's labelled graph with
    # its keys and neighbor order, so every ball order, witness and
    # artifact reads as the reference's.
    g = resolve_model(model)
    image = {g.root: reference.root}
    frontier = [g.root]
    for _ in range(9):  # every vertex of the radius-8 ball
        nxt = []
        for v in frontier:
            nbrs, ref_nbrs = g.neighbors(v), reference.neighbors(image[v])
            assert [(g.canonical_key(w), label) for w, label in nbrs] == [
                (reference.canonical_key(x), label) for x, label in ref_nbrs
            ], (model, v)
            for (w, _), (x, _) in zip(nbrs, ref_nbrs):
                if w not in image:
                    image[w] = x
                    nxt.append(w)
        frontier = nxt
    got, want = ball(g, 8), ball(reference, 8)
    assert (got.keys, got.distances, got.edges) == (want.keys, want.distances, want.edges)


def test_periodic_catalog_parameter_errors():
    for name, bad in (("zd", 0), ("cylinder_zd", 2), ("ladder_dihedral", 2)):
        with pytest.raises(GraphError, match="requires"):
            resolve_model(f"{name}{bad}")


def _spellings():
    """Every family and alias, and some near misses, with no parameter or
    0/1/2/3/5, joined with and without `_`; each in three cases, padded,
    and with junk around it."""
    bases = sorted(set(MODELS) | set(MODEL_ALIASES)) + [
        "tree", "zd_", "tree3_", "cylinder_zd_", "lattice", "", "_"]
    for base in bases:
        for sep in ("", "_"):
            for param in ("", "0", "1", "2", "3", "5"):
                s = base + (sep + param if param else sep)
                yield from (s, s.upper(), s.title(), f"  {s}\t", f"{s}x", f"-{s}",
                            s.replace("_", "-"), f"{s} 2")


def _resolved(resolve, spec):
    try:
        g = resolve(spec)
    except GraphError:
        return None
    return type(g), g.name, g.default_height, ball(g, 3).keys


def test_model_table_resolves_as_the_reference_resolver():
    # The table-driven resolver against the if-chain it replaced, copied
    # into the oracles: the same model, or a GraphError from both.
    accepted = 0
    for spec in sorted(set(_spellings())):
        want = _resolved(lambda s: oracles.reference_resolve_model(graphs, s), spec)
        assert _resolved(resolve_model, spec) == want, repr(spec)
        accepted += want is not None
    assert accepted > 100


def test_tree3_is_a_tree_with_involutions():
    g = Tree3Oracle()
    assert walk(g, ["s1", "t"]) == g.root
    assert walk(g, ["s2", "s2"]) == g.root
    b = ball(g, 5)
    assert len(b.edges) == b.vertex_count() - 1  # acyclic and connected
    assert [b.distances.count(r) for r in range(3)] == [1, 3, 6]
    assert ball(g, 1).vertex_count() == 4
    assert ball(g, 2).vertex_count() == 10
    assert ball(g, 3).vertex_count() == 22


def test_heisenberg_commutator_is_central_generator():
    g = HeisenbergOracle()
    assert walk(g, ["x", "y", "X", "Y"]) == walk(g, ["z"])
    assert walk(g, ["x", "z", "X", "Z"]) == g.root
    assert walk(g, ["y", "z", "Y", "Z"]) == g.root
    assert len(g.neighbors(g.root)) == 6


def test_lamplighter_relations():
    g = LamplighterOracle()
    assert walk(g, ["a", "a"]) == g.root
    assert walk(g, ["t", "u"]) == g.root
    # [a, t a u] = a (t a u) a (t a u)
    assert walk(g, ["a", "t", "a", "u", "a", "t", "a", "u"]) == g.root
    assert walk(g, ["a", "t", "t", "a", "u", "u", "a", "t", "t", "a", "u", "u"]) == g.root
    assert len(g.neighbors(g.root)) == 3


def test_dihedral_line_is_the_integer_line():
    g = resolve_model("dihedral_line")

    def position(v):
        return int(g.canonical_key(v))

    assert position(g.root) == 0
    assert walk(g, ["s1", "s1"]) == g.root
    assert walk(g, ["s2", "s2"]) == g.root
    one = walk(g, ["s1"])
    assert position(one) == 1
    assert sorted(position(w) for w, _ in g.neighbors(g.root)) == [-1, 1]
    assert sorted(position(w) for w, _ in g.neighbors(one)) == [0, 2]
    b = ball(g, 3)
    assert b.vertex_count() == 7
    assert len(b.edges) == 6


def test_cylinder_wraps():
    g = resolve_model("cylinder_zd4")
    assert ball(g, 1).vertex_count() == 5
    v = walk(g, ["y", "y", "y", "y"])
    assert v == g.root
    with pytest.raises(GraphError):
        resolve_model("cylinder_zd2")


def test_ladder_dihedral_is_same_graph_as_cylinder():
    for m in (3, 5, 8):
        a = resolve_model(f"ladder_dihedral{m}")
        b = resolve_model(f"cylinder_zd{m}")
        for k in range(1, 5):
            assert oracles.rooted_isomorphic(
                _as_triple(ball(a, k)), _as_triple(ball(b, k))
            ), (m, k)


def test_grandparent_structure():
    g = GrandparentOracle()
    nbrs = g.neighbors(g.root)
    assert len(nbrs) == 8
    labels = [label for _, label in nbrs]
    assert labels.count("parent") == 1
    assert labels.count("grandparent") == 1
    assert sum(1 for l in labels if l.startswith("child")) == 2
    assert sum(1 for l in labels if l.startswith("gc")) == 4
    # parent of parent is the grandparent
    p = walk(g, ["parent"])
    gp = walk(g, ["parent"], start=p)
    assert gp == walk(g, ["grandparent"])
    # triangle: v, parent, grandparent are mutually adjacent
    assert gp in [w for w, _ in g.neighbors(g.root)]


# ---------------------------------------------------------------------------
# Periodic graphs
# ---------------------------------------------------------------------------


def test_pg_validation_rejects_bad_documents():
    with pytest.raises(GraphError):  # orbit out of range
        PeriodicGraph(2, 1, ((1, 3, (0,), None), (3, 1, (0,), None)))
    with pytest.raises(GraphError):  # zero-voltage self-loop
        PeriodicGraph(1, 1, ((1, 1, (0,), None),))
    with pytest.raises(GraphError):  # missing reversal
        PeriodicGraph(2, 1, ((1, 2, (0,), None),))
    with pytest.raises(GraphError):  # repeated directed edge
        PeriodicGraph(
            2, 1, ((1, 2, (0,), None), (2, 1, (0,), None), (1, 2, (0,), None))
        )
    with pytest.raises(GraphError):  # voltages span 2Z, cover disconnected
        PeriodicGraph(1, 1, ((1, 1, (2,), None), (1, 1, (-2,), None)))
    with pytest.raises(GraphError):  # quotient disconnected
        PeriodicGraph(
            2,
            1,
            ((1, 1, (1,), None), (1, 1, (-1,), None), (2, 2, (1,), None), (2, 2, (-1,), None)),
        )


def test_pg_rejects_a_proper_sublattice_without_enumerating_minors():
    # 30 loops with even voltages in dimension 4: the cover splits into
    # 2^4 components. The directed edge list has 60 voltages, so the
    # old gcd over all 4 x 4 minors took C(60, 4) = 487,635 determinants.
    voltages = [
        v for v in itertools.product((0, 2, 4), repeat=4) if any(v)
    ][:30]
    doc = {"orbits": 1, "dim": 4, "edges": [[1, 1, list(v)] for v in voltages]}
    with pytest.raises(GraphError, match="not connected"):
        periodic_graph_from_document(doc)
    both = voltages + [tuple(-c for c in v) for v in voltages]
    assert lattice_index(both, 4) == 16


def test_pg_document_roundtrip():
    pg = hexagonal_pg()
    doc = pg.to_document()
    pg2 = periodic_graph_from_document(doc)
    # the document schema carries structure only, not edge labels
    strip = lambda edges: sorted((o1, o2, t) for o1, o2, t, _ in edges)
    assert pg2.orbit_count == pg.orbit_count
    assert pg2.dim == pg.dim
    assert strip(pg2.edges) == strip(pg.edges)
    # reversal closure applied when half the edges are given
    half = {
        "orbits": 2,
        "dim": 1,
        "edges": [[1, 2, [0]], [2, 1, [1]]],
    }
    pg3 = periodic_graph_from_document(half)
    assert pg3.degree(1) == 2
    assert pg3.degree(2) == 2
    assert periodic_graph_from_document(json.dumps(half)) == pg3


def test_pg_document_keeps_a_label_given_for_the_reverse_direction():
    doc = {"orbits": 1, "dim": 1, "edges": [[1, 1, [1], "x"], [1, 1, [-1], "X"]]}
    pg = periodic_graph_from_document(doc)
    assert [label for _, _, label in pg.out_edges(1)] == ["X", "x"]
    # In either order; a repeated entry merges, and the first label wins.
    for edges in (doc["edges"][::-1], doc["edges"] + [[1, 1, [1]], [1, 1, [1], "y"]],
                  [[1, 1, [1]], [1, 1, [-1], "X"], [1, 1, [1], "x"]]):
        assert periodic_graph_from_document(dict(doc, edges=edges)) == pg, edges
    # A direction no entry labels is named by its position.
    one = periodic_graph_from_document(dict(doc, edges=[[1, 1, [1], "x"]]))
    assert [label for _, _, label in one.out_edges(1)] == ["e0", "x"]


@pytest.mark.parametrize("doc", [
    {"orbits": 1, "dim": 1},
    {"orbits": "1", "dim": 1, "edges": []},
    {"orbits": 1, "dim": 1.5, "edges": []},
    {"orbits": 1, "dim": 1, "edges": 5},
    {"orbits": 1, "dim": 1, "edges": [5]},
    {"orbits": 1, "dim": 1, "edges": [[1, 1]]},
    {"orbits": 1, "dim": 1, "edges": [[1, 1, 5]]},
    {"orbits": 1, "dim": 1, "edges": [[1, 1, ["1"]]]},
    {"orbits": 1, "dim": 1, "edges": [[1, 1, [True]]]},
    {"orbits": 1, "dim": 1, "edges": [[1.0, 1, [1]]]},
    {"orbits": 1, "dim": 1, "edges": [[1, 1, [1], ["x"]]]},
    {"orbits": 1, "dim": 1, "edges": [[1, 1, [1], 7]]},
], ids=str)
def test_pg_document_with_wrong_typed_fields_is_a_graph_error(doc):
    with pytest.raises(GraphError):
        periodic_graph_from_document(doc)


def test_pg_oracle_neighbor_order_and_labels():
    # Unlabelled edges are named e<i> by their position among the edges
    # leaving their orbit, labelled or not.
    pg = periodic_graph_from_document(
        {"orbits": 2, "dim": 1, "edges": [[1, 2, [0], "a"], [2, 1, [1]]]}
    )
    g = PGOracle(pg)
    assert g.neighbors((1, (0,))) == (((2, (-1,)), "e0"), ((2, (0,)), "a"))
    assert g.neighbors((2, (3,))) == (((1, (3,)), "e0"), ((1, (4,)), "e1"))
    assert [label for _, _, label in pg.out_edges(2)] == ["e0", "e1"]
    hexa = resolve_model("hexagonal")
    assert hexa.neighbors((2, (0, 0))) == (
        ((1, (0, 0)), "s1"), ((1, (1, 0)), "s3"), ((1, (0, 1)), "s2")
    )


def test_pg_preset_degrees():
    assert all(zd_pg(2).degree(o) == 4 for o in (1,))
    assert all(hexagonal_pg().degree(o) == 3 for o in (1, 2))
    assert all(square_octagon_pg().degree(o) == 3 for o in (1, 2, 3, 4))
    assert all(dihedral_line_pg().degree(o) == 2 for o in (1, 2))
    with pytest.raises(GraphError):
        resolve_model("nope")


def _as_triple(b: Ball):
    return b.vertices, b.edges, b.distances


def test_hexagonal_cover_matches_brick_wall():
    g = resolve_model("hexagonal")
    for k in range(1, 5):
        mine = ball(g, k)
        ref = oracles.coordinate_ball(oracles.brick_wall_neighbors, (0, 0), k)
        assert oracles.rooted_isomorphic(_as_triple(mine), ref), k
    assert ball(g, 1).vertex_count() == 4
    assert ball(g, 2).vertex_count() == 10


def test_square_octagon_cover_matches_truncated_square():
    g = resolve_model("square_octagon")
    for k in range(1, 5):
        mine = ball(g, k)
        ref = oracles.coordinate_ball(
            oracles.truncated_square_neighbors, (0, 0, 0), k
        )
        assert oracles.rooted_isomorphic(_as_triple(mine), ref), k


def test_zd2_pg_cover_matches_lattice():
    g = resolve_model("zd2")
    pg = PGOracle(zd_pg(2), "zd2_pg")
    for k in range(1, 4):
        assert oracles.rooted_isomorphic(
            _as_triple(ball(g, k)), _as_triple(ball(pg, k))
        ), k


def test_cover_vertex_validation():
    pg = hexagonal_pg()
    assert cover_vertex(pg, 2, (1, -1)) == (2, (1, -1))
    with pytest.raises(GraphError):
        cover_vertex(pg, 3, (0, 0))
    with pytest.raises(GraphError):
        cover_vertex(pg, 1, (0,))


# ---------------------------------------------------------------------------
# Model resolution and balls
# ---------------------------------------------------------------------------


def test_resolve_model_spellings():
    assert resolve_model("zd2").name == "zd2"
    assert resolve_model("cylinder8").name == resolve_model("cylinder_zd8").name
    assert resolve_model("ladder_dihedral6").name.startswith("ladder")
    assert resolve_model("tree3").name == "tree3"
    for bad in ("zd", "cylinder_zd", "nosuch", "tree5", "grandparent9"):
        with pytest.raises(GraphError):
            resolve_model(bad)


def test_ball_shape_zd2():
    g = resolve_model("zd2")
    b1 = ball(g, 1)
    assert b1.vertex_count() == 5
    assert len(b1.edges) == 4
    b2 = ball(g, 2)
    assert b2.vertex_count() == 13
    assert b2.distances == sorted(b2.distances)
    # interior degrees equal 4
    adj = b2.adjacency()
    for i, v in enumerate(b2.vertices):
        if b2.distances[i] <= 1:
            assert len(adj[i]) == 4


def test_ball_budget():
    with pytest.raises(BudgetExceeded):
        ball(resolve_model("zd2"), 10, max_vertices=20)


def test_ball_deterministic():
    g = resolve_model("zd2")
    a, b = ball(g, 3), ball(g, 3)
    assert a.keys == b.keys
    assert a.edges == b.edges


def test_walk_ball_drops_only_shell_edges():
    for name in ("zd2", "cylinder5", "hexagonal"):
        g = resolve_model(name)
        for k in (1, 2, 3, 4):
            induced = ball(g, k)
            walk = ball(g, k, convention="walk")
            assert walk.keys == induced.keys, (name, k)
            assert walk.distances == induced.distances, (name, k)
            assert walk.vertices == induced.vertices, (name, k)
            shell = {i for i, d in enumerate(induced.distances) if d == k}
            expected = [e for e in induced.edges if not (e[0] in shell and e[1] in shell)]
            assert walk.edges == expected, (name, k)


def test_ball_rejects_unknown_convention():
    for bad in ("", "Walk", "shell"):
        with pytest.raises(GraphError):
            ball(resolve_model("zd2"), 2, convention=bad)


CATALOG_MODELS = ("zd1", "zd2", "zd3", "tree3", "heisenberg", "lamplighter",
                  "grandparent", "dihedral_line", "hexagonal", "square_octagon",
                  "cylinder5", "ladder_dihedral6")


def _fields(b):
    return (b.center_key, b.radius, b.vertices, b.keys, b.distances, b.edges,
            b.convention)


@pytest.mark.parametrize("name", CATALOG_MODELS)
def test_restrict_equals_ball_of_that_radius(name):
    g = resolve_model(name)
    top = 4
    for grown_as in ("induced", "walk"):
        grown = ball(g, top, convention=grown_as)
        for convention in ("induced", "walk"):
            # A walk ball lacks the induced ball's shell edges at its radius.
            last = top - 1 if (grown_as, convention) == ("walk", "induced") else top
            cuts = [grown.restrict(r, convention) for r in range(last + 1)]
            for r, cut in enumerate(cuts):
                assert _fields(cut) == _fields(ball(g, r, convention=convention)), (
                    grown_as, convention, r)
            if last == top:
                assert grown.sizes(convention) == [
                    (cut.vertex_count(), len(cut.edges)) for cut in cuts]


def test_restrict_rejects_radius_outside_ball():
    b = ball(resolve_model("zd2"), 2)
    for r in (-1, 3):
        with pytest.raises(GraphError):
            b.restrict(r)
    with pytest.raises(GraphError):
        b.restrict(1, "shell")
    walk = ball(resolve_model("zd2"), 2, convention="walk")
    with pytest.raises(GraphError):
        walk.restrict(2, "induced")
    with pytest.raises(GraphError):
        walk.sizes("induced")


def test_ball_growth_leaves_ball_unchanged_when_a_layer_does_not_fit():
    from sawlab.graphs import BallGrowth

    g = resolve_model("zd2")
    growth = BallGrowth(g, max_vertices=20)
    assert growth.grow() and growth.grow()  # 5, then 13 vertices
    assert not growth.grow()  # 25 vertices
    assert not growth.grow()
    assert growth.radius == 2 and growth.layer_sizes == [1, 4, 8]
    assert _fields(growth.ball()) == _fields(ball(g, 2))

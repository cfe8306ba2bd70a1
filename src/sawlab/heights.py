"""Height functions: harmonic solutions on periodic graphs, integer
repair to increase-everywhere height functions, and axiom verification.

There are three kinds of height: `PeriodicHeight`, an affine graph
height f(o) + <lambda, x> on a periodic-graph cover; `GammaHeight`, a
group height, the word sum of gamma over the generators; and
`LevelHeight`, the level of the grandparent graph. A coordinate of a
cover is the periodic height f = 0, lambda = e_i, and a coordinate of
a Heisenberg element is a word sum.

A difference-invariant function on the cover of a PeriodicGraph is
affine: value(o, x) = f(o) + <lambda, x>. Harmonicity at each orbit is
deg(o) * f(o) = sum over edges (o, o2, t) of (f(o2) + <lambda, t>),
a finite rational linear system solved exactly. `solution_space` pins
orbit 1 and reduces that system once, with one right-hand side per
lattice direction, for a basis of its solutions. The basis
can then be combined and scaled into an integer-valued height function
that has a strictly lower and a strictly higher neighbor at every
vertex: `increase_repair` takes the first signed basis solution, then
the first combination on one moment curve, that does. A dimension-0 or
degenerate document has none and raises `RepairExhausted`.

`verify` checks a height on a ball around the root, from one BFS of
`transport`: the axioms, the harmonic defects and the increment bound d.
The BFS expands only the vertices whose neighbors a check reads: those
within max(radius, 2), and also the radius + 1 shell for the word sum
(whose conflicts are checked on every edge of the ball). It returns one
`Verification` record.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import integer_kernel, solve_unique
from .graphs import (
    DEFAULT_BALL_BUDGET,
    BudgetExceeded,
    GraphOracle,
    HeisenbergOracle,
    PeriodicGraph,
    PGOracle,
)
from .presentations import choose_ghf, coefficient_matrix, preset_presentation


class HeightError(ValueError):
    pass


class HeightConflict(HeightError):
    """Transport gave a vertex two heights; args: (vertex, had, carried)."""

    def __str__(self) -> str:
        return "height transport conflict at {!r}: {} vs {}".format(*self.args)


# ---------------------------------------------------------------------------
# Height-function objects (picklable; consumed by the walk enumerator)
# ---------------------------------------------------------------------------


class HeightFunction:
    """A vertex height, read at a vertex (`at`) or carried across an edge
    (`across`). A height with values at vertices implements `at`; the
    word sum `GammaHeight`, known only by transport along edge labels,
    implements `across` instead and starts every transport at 0."""

    name: str = "height"

    def at(self, v) -> Optional[int]:
        return None

    def across(self, hv: int, w, label: str) -> int:
        """The height of `w`, entered with height `hv` along an edge
        labelled `label`."""
        return self.at(w)


@dataclass(frozen=True)
class LevelHeight(HeightFunction):
    """Level toward the distinguished end of the grandparent graph."""

    name = "level"

    def at(self, v) -> int:
        if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], str):
            return v[0] - len(v[1])
        raise HeightError(f"level height needs (level, word) vertices, got {v!r}")


@dataclass(frozen=True)
class GammaHeight(HeightFunction):
    """Word-sum height from a kernel vector, transported along edge labels."""

    gamma: Tuple[Tuple[str, int], ...]
    name: str = "ghf"

    def __post_init__(self):
        # The first entry of a symbol wins, as in a scan of `gamma`.
        object.__setattr__(self, "_delta", dict(reversed(self.gamma)))

    def across(self, hv: int, w, label: str) -> int:
        try:
            return hv + self._delta[label]
        except KeyError:
            raise HeightError(f"edge label {label!r} has no height increment") from None


@dataclass(frozen=True)
class PeriodicHeight(HeightFunction):
    """Integer height on a PeriodicGraph cover: h(o, x) = f[o-1] + <lam, x>."""

    f: Tuple[int, ...]
    lam: Tuple[int, ...]
    scale: int = 1
    name: str = "periodic"

    def at(self, v) -> int:
        o, x = v
        return self.f[o - 1] + sum(map(mul, self.lam, x))


def transport(
    g: GraphOracle,
    h: Optional[HeightFunction],
    start,
    radius: int,
    ids: Dict[object, int],
    heights: List[int],
    above: bool = False,
    stop: Optional[int] = None,
):
    """Carry `h` over a BFS of the radius-`radius` ball around `start`.

    Fills the empty `ids` (vertex -> id, in BFS order, `start` = 0) and
    `heights` (per id: 0 at the start for the word sum `GammaHeight` and
    `h.at(start)` for any other height, else `h.across` along the first
    edge in; 0 if `h` is None). A height read at vertices is read once
    per kept vertex: an edge into a vertex with an id takes its height
    from `heights`. With `above`, only edges into vertices above the
    start are followed, and distance is measured along them. Yields
    (depth, ids its followed edges reach in neighbor order, the labels
    of those edges) for each vertex at distance depth < `radius`, in id
    order. `ids` keeps those vertices only, so their ids are
    0..len(ids) - 1; each edge into a vertex at distance `radius` gets a
    fresh id past them. An edge of the word sum that gives a kept vertex
    a second height raises HeightConflict.

    With `stop` <= `radius`, only the vertices at distance < `stop` are
    expanded and yielded; `ids` still keeps every vertex they reach
    within distance `radius` - 1.
    """
    across = None if h is None else h.across
    carried = isinstance(h, GammaHeight)
    h0 = 0 if h is None or carried else h.at(start)
    floor = h0 if above else None
    ids[start] = 0
    heights.append(h0)
    vertices = [start]
    lo = 0
    for depth in range(radius if stop is None else stop):
        keep = depth < radius - 1
        hi = len(vertices)
        for i in range(lo, hi):
            hv = heights[i]
            row = []
            labels = []
            for w, label in g.neighbors(vertices[i]):
                j = ids.get(w)
                if j is not None and not carried:
                    hw = heights[j]
                else:
                    hw = 0 if across is None else across(hv, w, label)
                if floor is not None and hw <= floor:
                    continue
                if j is None:
                    j = len(heights)
                    heights.append(hw)
                    if keep:
                        ids[w] = j
                        vertices.append(w)
                elif heights[j] != hw:
                    raise HeightConflict(w, heights[j], hw)
                row.append(j)
                labels.append(label)
            yield depth, row, labels
        lo = hi


# ---------------------------------------------------------------------------
# Harmonic solutions on periodic graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicSolution:
    """Exact harmonic difference-invariant function f(o) + <lam, x>."""

    pg: PeriodicGraph
    lam: Tuple[Fraction, ...]
    f: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lam) != self.pg.dim or len(self.f) != self.pg.orbit_count:
            raise HeightError("solution shape does not match the periodic graph")
        res = harmonic_residuals(self.pg, self.lam, self.f)
        if any(r != 0 for r in res):
            raise HeightError(f"solution is not harmonic: residuals {res}")

    def value(self, o: int, x: Sequence[int]) -> Fraction:
        return self.f[o - 1] + sum(l * c for l, c in zip(self.lam, x))


def _increments(pg: PeriodicGraph, lam: Sequence, f: Sequence) -> List[List]:
    """Per orbit o, f(o2) - f(o) + <lam, t> over the edges (o, o2, t)
    leaving it: the height increments from (o, 0) to its neighbors."""
    return [[f[o2 - 1] - f[o - 1] + sum(map(mul, lam, t)) for o2, t, _label in pg.out_edges(o)]
            for o in range(1, pg.orbit_count + 1)]


def harmonic_residuals(
    pg: PeriodicGraph, lam: Sequence[Fraction], f: Sequence[Fraction]
) -> List[Fraction]:
    """Per-orbit residual deg(o) f(o) - sum(f(o2) + <lam, t>), which is
    minus the sum of the orbit's increments; zero iff harmonic."""
    return [-sum(incs) for incs in _increments(pg, lam, f)]


def _orbit_system(
    pg: PeriodicGraph, lams: Sequence[Sequence[Fraction]]
) -> List[Tuple[Fraction, ...]]:
    """f of the harmonic extension of each lambda in `lams` with f(1) = 0:
    the orbit system, pinned once and reduced once with one right-hand
    side per lambda.

    The equation of orbit 1 is dropped; for a connected quotient the
    remaining system is uniquely solvable (see `solution_space`), and the
    dropped equation follows because all equations sum to zero.
    """
    m = pg.orbit_count
    # With every unknown at 0, the increments are the constant terms.
    constants = [_increments(pg, lam, [0] * m) for lam in lams]
    rows, rhs = [], []
    for o in range(2, m + 1):
        row = [0] * (m - 1)
        row[o - 2] += pg.degree(o)
        for o2, _t, _label in pg.out_edges(o):
            if o2 != 1:
                row[o2 - 2] -= 1
        rows.append(row)
        rhs.append([sum(incs[o - 1]) for incs in constants])
    # Row o - 1 of x holds f(o) for every lambda once orbit 1's row is in.
    x = solve_unique(rows, rhs)
    x.insert(0, [Fraction(0)] * len(lams))
    return [tuple(f) for f in zip(*x)]


def solution_space(pg: PeriodicGraph) -> List[HarmonicSolution]:
    """Q-basis of harmonic difference-invariant functions with f(1) = 0:
    the harmonic extension of lambda = e_i from orbit 1, one per lattice
    direction, all from one reduction of the pinned orbit system.

    A PeriodicGraph is connected, so by the matrix-tree theorem its
    quotient Laplacian with orbit 1's row and column removed has a
    non-zero determinant (the number of spanning trees). Each extension
    therefore exists and is unique, and no solution with lambda = 0 other
    than the constants exists.
    """
    units = [tuple(int(j == i) for j in range(pg.dim)) for i in range(pg.dim)]
    fs = _orbit_system(pg, units)
    return [HarmonicSolution(pg=pg, lam=lam, f=f) for lam, f in zip(units, fs)]


class RepairExhausted(RuntimeError):
    """No harmonic height increases everywhere: the dimension is 0, or an
    orbit's neighbor increments are 0 in every harmonic solution."""


def increase_repair(pg: PeriodicGraph, name: str = "repaired") -> PeriodicHeight:
    """Integer-valued harmonic height function increasing everywhere: the
    first combination sum c_i s_i of the b `solution_space` solutions whose
    neighbor increments at every orbit include a negative and a positive
    one, scaled to clear denominators.
    c runs over e_1, ..., e_b, -e_b, ..., -e_1, then the moment curve
    c(t) = (1, t, ..., t^(b-1)) for t = 1, ..., M(b-1), M the orbit count.

    Proof that some c passes. Every combination is harmonic, so an orbit
    lacks a strictly lower or higher neighbor only if all its neighbor
    increments are 0. An increment is linear in c, and after the checks
    below each orbit has one that is not 0 in some solution; on the curve
    it is a nonzero polynomial in t of degree < b, with fewer than b
    roots. So the M orbits rule out at most M(b-1) values of t, some t in
    0..M(b-1) passes, and c(0) = e_1.
    """
    return _repair(pg, solution_space(pg), name)


def _repair(
    pg: PeriodicGraph, basis: List[HarmonicSolution], name: str = "repaired"
) -> PeriodicHeight:
    """`increase_repair` on `basis`, the `solution_space` of `pg`."""
    if not basis:
        raise RepairExhausted("dimension 0: every harmonic solution is constant")
    # Per orbit, each out edge's increment in every basis solution, scaled
    # by one common denominator to an integer. Increments are linear in the
    # coefficients, so a candidate's are the same combination of these.
    denominator = lcm(*(q.denominator for s in basis for q in s.lam + s.f))

    def scaled(qs):
        return [q.numerator * (denominator // q.denominator) for q in qs]

    per_solution = [_increments(pg, scaled(s.lam), scaled(s.f)) for s in basis]
    increments = [list(zip(*orbit)) for orbit in zip(*per_solution)]
    # An orbit whose increments are zero in every basis solution has them
    # zero in every combination, so every candidate would fail there.
    for o, edges in enumerate(increments, 1):
        if not any(map(any, edges)):
            raise RepairExhausted(f"orbit {o} has no neighbor of another height in any solution")
    b = len(basis)
    units = [tuple(int(i == j) for j in range(b)) for i in range(b)]
    candidates = itertools.chain(
        units,
        (tuple(-c for c in e) for e in reversed(units)),
        (tuple(t**k for k in range(b)) for t in range(1, pg.orbit_count * (b - 1) + 1)),
    )
    for coeffs in candidates:
        combined = ([sum(map(mul, coeffs, e)) for e in edges] for edges in increments)
        if not all(min(incs) < 0 < max(incs) for incs in combined):
            continue
        lam = tuple(
            sum(c * s.lam[i] for c, s in zip(coeffs, basis)) for i in range(pg.dim)
        )
        f = tuple(
            sum(c * s.f[o] for c, s in zip(coeffs, basis)) for o in range(pg.orbit_count)
        )
        scale = lcm(*(q.denominator for q in lam + f))
        return PeriodicHeight(
            f=tuple(int(q * scale) for q in f),
            lam=tuple(int(q * scale) for q in lam),
            scale=scale,
            name=name,
        )
    raise AssertionError(
        "no candidate on the moment curve increases everywhere, against the "
        "root count in increase_repair's proof"
    )


def repair_document(pg: PeriodicGraph, h: PeriodicHeight) -> dict:
    """Exportable description: exact fractions, scale, increase witnesses."""
    lam_frac = [Fraction(l, h.scale) for l in h.lam]
    f_frac = [Fraction(x, h.scale) for x in h.f]
    return {
        "lambda": [str(q) for q in lam_frac],
        "f": [str(q) for q in f_frac],
        "scale": h.scale,
        "integer_lambda": list(h.lam),
        "integer_f": list(h.f),
        # Per orbit, its lowest and highest neighbor value, f(o) + increment.
        "increase_witnesses": [
            {"orbit": o, "lower": str(fo + min(incs)), "higher": str(fo + max(incs))}
            for o, (fo, incs) in enumerate(zip(h.f, _increments(pg, h.lam, h.f)), 1)
        ],
    }


# ---------------------------------------------------------------------------
# Heights by name
# ---------------------------------------------------------------------------


def resolve_height(g: GraphOracle, name: Optional[str] = None) -> HeightFunction:
    """Height `name` on model `g`; None or "auto" is `g.default_height`.

    On a periodic-graph cover the default height, and "repaired", is the
    integer harmonic height `increase_repair` finds, named `name`. Other
    names: "x" and "y", coordinate 0 and 1 (of the lattice point of a
    periodic-graph cover, the periodic height f = 0, lambda = e_i; of a
    Heisenberg element, the word sum of x - X or y - Y), "identity" (the
    coordinate of a one-orbit line), "level" (grandparent) and "ghf" (the
    word-sum height of the model's presentation preset).
    """
    if name is None or name == "auto":
        name = g.default_height
        if name is None:
            raise HeightError(f"no default height for model {g.name!r}")
    if isinstance(g, PGOracle) and name in (g.default_height, "repaired"):
        return increase_repair(g.pg, name=name)
    if name in ("x", "y") and isinstance(g, HeisenbergOracle):
        labels = [label for _w, label in g.neighbors(g.root)]
        return GammaHeight(tuple((s, (s == name) - (s == name.upper())) for s in labels),
                           name=name)
    if name in ("x", "y") and not isinstance(g, PGOracle):
        raise HeightError(f"height {name!r} needs a model with coordinates, "
                          f"and {g.name} has none")
    if name == "identity" and not (isinstance(g, PGOracle) and g.pg.orbit_count == g.pg.dim == 1):
        raise HeightError("identity height needs a line model")
    if name in ("x", "y", "identity"):
        i, dim = int(name == "y"), g.pg.dim
        if i >= dim:
            raise HeightError(f"height {name!r} needs a model of dimension >= {i + 1}, "
                              f"and {g.name} has dimension {dim}")
        return PeriodicHeight((0,) * g.pg.orbit_count, tuple(int(j == i) for j in range(dim)),
                              name=name)
    if name == "level":
        return LevelHeight()
    if name == "ghf":
        p = preset_presentation(g.name)
        gamma = choose_ghf(integer_kernel(coefficient_matrix(p), len(p.generators)))
        if gamma is None:
            raise HeightError(f"presentation {g.name!r} admits no such height")
        return GammaHeight(tuple(zip(p.generators, gamma)))
    if name == "repaired":
        raise HeightError("repaired heights require a periodic-graph model")
    raise HeightError(f"unknown height {name!r}")


# ---------------------------------------------------------------------------
# Verification on balls
# ---------------------------------------------------------------------------


@dataclass
class Verification:
    """What `verify` measured on the vertices within its radius, `checked`
    of them: the axiom failures, h(root), how invariance was decided, the
    distinct harmonic defects in increasing order, the worst defect as
    (canonical key, defect), and the increment bound d."""

    failures: List[str]
    root_value: int
    checked: int
    invariance_note: str
    defect_values: List[Fraction]
    worst: Tuple[str, Fraction]
    d: int

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def all_zero(self) -> bool:
        return self.defect_values == [0]

    @property
    def uniform_defect(self) -> Optional[Fraction]:
        return self.defect_values[0] if len(self.defect_values) == 1 else None


def verify(
    g: GraphOracle,
    h: HeightFunction,
    radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
) -> Verification:
    """Check `h` on the radius-`radius` ball of `g`, in one `transport`
    BFS of the radius-R ball, R = max(radius + 1, d's radius).

    The BFS expands the vertices within max(radius, d's radius), whose
    rows the checks read. It expands the vertices at distance R as well
    for the word sum `GammaHeight`, so that an edge between two vertices
    at distance R that gives one of them a second height raises
    HeightConflict. A height read at vertices cannot conflict.

    - axioms: h(root) = 0, a strictly lower and a strictly higher
      neighbor at every vertex within `radius`, and difference-invariance:
      checked exactly for a periodic height on a cover, and structural
      (by construction) for any other height;
    - harmonic: the exact defect h(v) - mean(neighbor heights) at every
      vertex within `radius`;
    - d: the largest |h(u) - h(v)| over the edges of the radius
      max(2, min(radius, 4)) ball. Every edge type of the catalog models
      appears within radius 2 of the root, so this is the global maximum.

    The neighbors of a vertex are the distinct vertices its edges reach.
    Failures name vertices in (distance, canonical key) order, and the
    worst defect is the first largest one in that order. More than
    `max_vertices` vertices within R raise BudgetExceeded.
    """
    if radius < 0:
        raise HeightError("radius must be >= 0")
    d_radius = max(2, min(radius, 4))
    top_radius = max(radius + 1, d_radius)
    last = top_radius if isinstance(h, GammaHeight) else max(radius, d_radius)
    ids: Dict[object, int] = {}
    values: List[int] = []
    depths: List[int] = []
    rows: List[List[int]] = []
    for depth, row, _labels in transport(g, h, g.root, top_radius + 1, ids, values, stop=last + 1):
        if len(ids) > max_vertices:
            raise BudgetExceeded(f"ball({g.name}, {top_radius}) exceeds {max_vertices} vertices")
        depths.append(depth)
        rows.append(row)
    # Ids run in BFS order, so the vertices within each radius are a
    # prefix, and every neighbor of a checked vertex has an id.
    checked, d_count = bisect_right(depths, radius), bisect_right(depths, d_radius)
    d = max(abs(values[i] - values[j]) for i in range(d_count) for j in rows[i] if j < d_count)
    vertices = list(ids)
    failures: List[str] = []
    root_value = values[0]
    if root_value != 0:
        failures.append(f"h(root) = {root_value}, expected 0")
    missing = []
    # Each defect h(v) - mean is kept as the integer pair (h(v) n - sum, n),
    # with the ids where it first occurs, all at the least distance.
    first: Dict[Tuple[int, int], List[int]] = {}
    for i in range(checked):
        hv = values[i]
        neigh = [values[j] for j in set(rows[i])]
        lower, higher = min(neigh) < hv, max(neigh) > hv
        if not lower or not higher:
            side = "lower" if not lower else "higher"
            missing.append((depths[i], g.canonical_key(vertices[i]), hv, side))
        n = len(neigh)
        pair = (hv * n - sum(neigh), n)
        at = first.get(pair)
        if at is None:
            first[pair] = [i]
        elif depths[at[0]] == depths[i]:
            at.append(i)
    failures += [f"no strictly {side} neighbor at {k.decode()} (h = {hv})"
                 for _depth, k, hv, side in sorted(missing)]
    defects = {pair: Fraction(*pair) for pair in first}
    # The worst defect: the largest |defect| at the least distance where it occurs.
    size = max(map(abs, defects.values()))
    top = [(i, q) for pair, q in defects.items() if abs(q) == size for i in first[pair]]
    least = min(depths[i] for i, _q in top)
    key, defect = min((g.canonical_key(vertices[i]), q) for i, q in top if depths[i] == least)

    # Difference-invariance. A periodic height is affine in the lattice
    # coordinate on each orbit, h(o, x) = c_o + <m_o, x>, so it is
    # invariant exactly when m_o = lam, that is when each unit translation
    # of the orbit's base point raises h by lam_i: d checks per orbit
    # decide it. Word-sum and level heights are invariant structurally
    # (additivity under left multiplication / end-preserving maps).
    if isinstance(h, PeriodicHeight) and isinstance(g, PGOracle):
        dim = g.pg.dim
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        bad = 0
        for o in range(1, g.pg.orbit_count + 1):
            v = (o, (0,) * dim)
            for lam_i, t in zip(h.lam, units):
                if h.at(g.translate(v, t)) - h.at(v) != lam_i:
                    bad += 1
        if bad:
            failures.append(f"difference-invariance violated at {bad} translates")
        note = "exact (unit translations of each orbit)"
    else:
        note = "structural (invariant by construction)"

    return Verification(failures, root_value, checked, note, sorted(set(defects.values())),
                        (key.decode(), defect), d)


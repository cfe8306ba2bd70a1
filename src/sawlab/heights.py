"""Height functions: harmonic solutions on periodic graphs, integer
repair to increase-everywhere height functions, and axiom verification.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._linalg import solve_unique
from .graphs import (
    DEFAULT_BALL_BUDGET,
    BudgetExceeded,
    GraphOracle,
    HeisenbergOracle,
    PeriodicGraph,
    PGOracle,
)
from .presentations import choose_ghf, preset_presentation


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
    (`across`). A height with values at vertices implements `at`; one
    known only by transport along edge labels, such as a word sum,
    implements `across` and `origin` instead."""

    name: str = "height"

    def at(self, v) -> Optional[int]:
        return None

    def across(self, hv: int, w, label: str) -> int:
        """The height of `w`, entered with height `hv` along an edge
        labelled `label`."""
        return self.at(w)

    def origin(self, v) -> int:
        """The height a transport from `v` starts at: `at(v)`. A height
        known only by transport starts at 0, its value at the root; away
        from the root only its differences are used."""
        return self.at(v)


@dataclass(frozen=True)
class CoordinateHeight(HeightFunction):
    """h = a fixed coordinate: of the lattice point x of a periodic-graph
    cover vertex (o, x), or of a plain tuple vertex such as a Heisenberg
    element."""

    index: int = 0
    label: str = "x"

    @property
    def name(self) -> str:
        return self.label

    def at(self, v) -> int:
        try:
            return v[1][self.index] if isinstance(v[1], tuple) else v[self.index]
        except (IndexError, TypeError):
            raise HeightError(f"vertex {v!r} has no coordinate {self.index}") from None


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
    height_name: str = "ghf"

    @property
    def name(self) -> str:
        return self.height_name

    def __post_init__(self):
        # The first entry of a symbol wins, as in a scan of `gamma`.
        object.__setattr__(self, "_delta", dict(reversed(self.gamma)))

    def across(self, hv: int, w, label: str) -> int:
        try:
            return hv + self._delta[label]
        except KeyError:
            raise HeightError(f"edge label {label!r} has no height increment") from None

    def origin(self, v) -> int:
        return 0

    @staticmethod
    def from_spec(spec) -> "GammaHeight":
        return GammaHeight(
            gamma=tuple(zip(spec.symbols, spec.gamma)),
            height_name="ghf",
        )


@dataclass(frozen=True)
class PeriodicHeight(HeightFunction):
    """Integer height on a PeriodicGraph cover: h(o, x) = f[o-1] + <lam, x>."""

    f: Tuple[int, ...]
    lam: Tuple[int, ...]
    scale: int = 1
    height_name: str = "periodic"

    @property
    def name(self) -> str:
        return self.height_name

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
):
    """Carry `h` over a BFS of the radius-`radius` ball around `start`.

    Fills the empty `ids` (vertex -> id, in BFS order, `start` = 0) and
    `heights` (per id: `h.origin` at the start, else `h.across` along the
    first edge in; 0 if `h` is None). With `above`, only edges into
    vertices above the start are followed, and distance is measured along
    them. Yields (depth, ids its followed edges reach in neighbor order,
    the labels of those edges) for each vertex at distance depth <
    `radius`, in id order. `ids` keeps those vertices only, so their ids
    are 0..len(ids) - 1; each edge into a vertex at distance `radius`
    gets a fresh id past them. An edge that gives a kept vertex a second
    height raises HeightConflict.
    """
    across = None if h is None else h.across
    h0 = 0 if h is None else h.origin(start)
    floor = h0 if above else None
    ids[start] = 0
    heights.append(h0)
    vertices = [start]
    lo = 0
    for depth in range(radius):
        keep = depth < radius - 1
        hi = len(vertices)
        for i in range(lo, hi):
            hv = heights[i]
            row = []
            labels = []
            for w, label in g.neighbors(vertices[i]):
                hw = 0 if across is None else across(hv, w, label)
                if floor is not None and hw <= floor:
                    continue
                j = ids.get(w)
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


def _neighbor_values(
    pg: PeriodicGraph, lam: Sequence[Fraction], f: Sequence[Fraction], o: int
) -> List[Fraction]:
    """f(o2) + <lam, t> over the edges (o, o2, t) leaving orbit o: the
    values at the neighbors of (o, 0)."""
    return [f[o2 - 1] + sum(Fraction(l) * c for l, c in zip(lam, t))
            for o2, t, _label in pg.out_edges(o)]


def harmonic_residuals(
    pg: PeriodicGraph, lam: Sequence[Fraction], f: Sequence[Fraction]
) -> List[Fraction]:
    """Per-orbit residual deg(o) f(o) - sum(f(o2) + <lam, t>); zero iff harmonic."""
    return [pg.degree(o) * f[o - 1] - sum(_neighbor_values(pg, lam, f, o))
            for o in range(1, pg.orbit_count + 1)]


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
    zero = [Fraction(0)] * m
    rows, rhs = [], []
    for o in range(2, m + 1):
        row = [0] * (m - 1)
        row[o - 2] += pg.degree(o)
        for o2, _t, _label in pg.out_edges(o):
            if o2 != 1:
                row[o2 - 2] -= 1
        rows.append(row)
        # With every unknown at 0, the neighbor values are the constant terms.
        rhs.append([sum(_neighbor_values(pg, lam, zero, o)) for lam in lams])
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
    units = [tuple(Fraction(int(j == i)) for j in range(pg.dim)) for i in range(pg.dim)]
    fs = _orbit_system(pg, units)
    return [HarmonicSolution(pg=pg, lam=lam, f=f) for lam, f in zip(units, fs)]


class RepairExhausted(RuntimeError):
    """No harmonic height increases everywhere: the dimension is 0, or an
    orbit's neighbor increments are 0 in every harmonic solution."""


def _strictly_increasing_everywhere(
    pg: PeriodicGraph, lam: Sequence[Fraction], f: Sequence[Fraction]
) -> Optional[List[Tuple[int, Fraction, Fraction]]]:
    """Check every orbit has a strictly lower and higher neighbor value.

    Returns per-orbit witnesses (orbit, lowest value, highest value) on
    success, None on failure. Checking one representative per orbit
    suffices: values are affine in x, so the neighbor pattern repeats.
    """
    witnesses = []
    for o in range(1, pg.orbit_count + 1):
        here = f[o - 1]
        values = _neighbor_values(pg, lam, f, o)
        lower, higher = min(values, default=here), max(values, default=here)
        if not lower < here < higher:
            return None
        witnesses.append((o, lower, higher))
    return witnesses


def increase_repair(pg: PeriodicGraph, name: str = "repaired") -> PeriodicHeight:
    """Integer-valued harmonic height function increasing everywhere: the
    first combination sum c_i s_i of the b `solution_space` solutions that
    passes `_strictly_increasing_everywhere`, scaled to clear denominators.
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
    # An orbit whose increments are zero in every basis solution has them
    # zero in every combination, so every candidate would fail there.
    for o in range(1, pg.orbit_count + 1):
        if all(v == s.f[o - 1] for s in basis for v in _neighbor_values(pg, s.lam, s.f, o)):
            raise RepairExhausted(f"orbit {o} has no neighbor of another height in any solution")
    b = len(basis)
    units = [tuple(int(i == j) for j in range(b)) for i in range(b)]
    candidates = itertools.chain(
        units,
        (tuple(-c for c in e) for e in reversed(units)),
        (tuple(t**k for k in range(b)) for t in range(1, pg.orbit_count * (b - 1) + 1)),
    )
    for coeffs in candidates:
        lam = tuple(
            sum(c * s.lam[i] for c, s in zip(coeffs, basis)) for i in range(pg.dim)
        )
        f = tuple(
            sum(c * s.f[o] for c, s in zip(coeffs, basis)) for o in range(pg.orbit_count)
        )
        if _strictly_increasing_everywhere(pg, lam, f) is None:
            continue
        scale = lcm(*(q.denominator for q in lam + f))
        return PeriodicHeight(
            f=tuple(int(q * scale) for q in f),
            lam=tuple(int(q * scale) for q in lam),
            scale=scale,
            height_name=name,
        )
    raise AssertionError(
        "no candidate on the moment curve increases everywhere, against the "
        "root count in increase_repair's proof"
    )


def repair_document(pg: PeriodicGraph, h: PeriodicHeight) -> dict:
    """Exportable description: exact fractions, scale, increase witnesses."""
    lam_frac = [Fraction(l, h.scale) for l in h.lam]
    f_frac = [Fraction(x, h.scale) for x in h.f]
    wit = _strictly_increasing_everywhere(pg, h.lam, h.f)
    return {
        "lambda": [str(q) for q in lam_frac],
        "f": [str(q) for q in f_frac],
        "scale": h.scale,
        "integer_lambda": list(h.lam),
        "integer_f": list(h.f),
        "increase_witnesses": [
            {"orbit": o, "lower": str(lo), "higher": str(hi)}
            for o, lo, hi in (wit or [])
        ],
    }


# ---------------------------------------------------------------------------
# Heights by name
# ---------------------------------------------------------------------------


def resolve_height(g: GraphOracle, name: Optional[str] = None) -> HeightFunction:
    """Height `name` on model `g`; None or "auto" is `g.default_height`.

    On a periodic-graph cover the default height, and "repaired", is the
    integer harmonic height `increase_repair` finds, named `name`. Other
    names: "x" and "y" (coordinates, of a periodic-graph cover or a
    Heisenberg element only), "identity" (the coordinate of a one-orbit
    line), "level" (grandparent) and "ghf" (the word-sum height of the
    model's presentation preset).
    """
    if name is None or name == "auto":
        name = g.default_height
        if name is None:
            raise HeightError(f"no default height for model {g.name!r}")
    if isinstance(g, PGOracle) and name in (g.default_height, "repaired"):
        return increase_repair(g.pg, name=name)
    if name in ("x", "y"):
        if not isinstance(g, (PGOracle, HeisenbergOracle)):
            raise HeightError(f"height {name!r} needs a model with coordinates, "
                              f"and {g.name} has none")
        return CoordinateHeight("xy".index(name), label=name)
    if name == "identity":
        if isinstance(g, PGOracle) and g.pg.orbit_count == g.pg.dim == 1:
            return CoordinateHeight(0, label="identity")
        raise HeightError("identity height needs a line model")
    if name == "level":
        return LevelHeight()
    if name == "ghf":
        spec = choose_ghf(preset_presentation(g.name))
        if spec is None:
            raise HeightError(f"presentation {g.name!r} admits no such height")
        return GammaHeight.from_spec(spec)
    if name == "repaired":
        raise HeightError("repaired heights require a periodic-graph model")
    raise HeightError(f"unknown height {name!r}")


# ---------------------------------------------------------------------------
# Verification on balls
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    ok: bool
    failures: List[str]
    root_value: int
    increase_checked: int
    invariance_note: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class HarmonicReport:
    all_zero: bool
    vertices_checked: int
    defect_values: List[Fraction]
    uniform_defect: Optional[Fraction]
    worst: Optional[Tuple[str, Fraction]]

    def __bool__(self) -> bool:
        return self.all_zero


class Verification(NamedTuple):
    axioms: AxiomReport
    harmonic: HarmonicReport
    d: int


def verify(
    g: GraphOracle,
    h: HeightFunction,
    radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
) -> Verification:
    """Check `h` on the radius-`radius` ball of `g`, in one `transport`
    BFS of the radius-R ball, R = max(radius + 1, d's radius).

    - axioms: h(root) = 0, difference-invariance, and a strictly lower
      and a strictly higher neighbor at every vertex within `radius`;
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
    ids: Dict[object, int] = {}
    values: List[int] = []
    depths: List[int] = []
    rows: List[List[int]] = []
    for depth, row, _labels in transport(g, h, g.root, top_radius + 1, ids, values):
        if len(ids) > max_vertices:
            raise BudgetExceeded(f"ball({g.name}, {top_radius}) exceeds {max_vertices} vertices")
        depths.append(depth)
        rows.append(row)
    # Ids run in BFS order, so the vertices within each radius are a
    # prefix, and every neighbor of a checked vertex has an id.
    checked, near, d_count = (sum(x <= r for x in depths) for r in (radius, radius + 1, d_radius))
    d = max(abs(values[i] - values[j]) for i in range(d_count) for j in rows[i] if j < d_count)
    vertices = list(ids)
    failures: List[str] = []
    root_value = values[0]
    if root_value != 0:
        failures.append(f"h(root) = {root_value}, expected 0")
    missing = []
    defects = set()
    # The largest |defect|, and (id, defect) where it occurs at the least distance.
    size, top = Fraction(-1), []
    for i in range(checked):
        hv = values[i]
        neigh = [values[j] for j in set(rows[i])]
        lower = any(hw < hv for hw in neigh)
        higher = any(hw > hv for hw in neigh)
        if not lower or not higher:
            side = "lower" if not lower else "higher"
            missing.append((depths[i], g.canonical_key(vertices[i]), hv, side))
        defect = Fraction(hv) - Fraction(sum(neigh), len(neigh))
        defects.add(defect)
        if abs(defect) > size:
            size, top = abs(defect), [(i, defect)]
        elif abs(defect) == size and depths[i] == depths[top[0][0]]:
            top.append((i, defect))
    failures += [f"no strictly {side} neighbor at {k.decode()} (h = {hv})"
                 for _depth, k, hv, side in sorted(missing)]
    key, defect = min((g.canonical_key(vertices[i]), defect) for i, defect in top)
    worst = (key.decode(), defect)

    # Difference-invariance. A periodic height is affine in the lattice
    # coordinate on each orbit, h(o, x) = c_o + <m_o, x>, so it is
    # invariant exactly when m_o = lam, that is when each unit translation
    # of the orbit's base point raises h by lam_i: d checks per orbit
    # decide it. Coordinate heights are checked by sampling; word-sum and
    # level heights are invariant structurally (additivity under left
    # multiplication / end-preserving maps).
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
    elif isinstance(h, CoordinateHeight):
        deltas = {values[j] - values[i] for i in range(near) for j in rows[i] if j < near}
        if not deltas <= {-1, 0, 1}:
            failures.append(f"unexpected edge increments {sorted(deltas)}")
        note = "sampled edge increments on the ball"
    else:
        note = "structural (invariant by construction)"

    vals = sorted(defects)
    return Verification(
        axioms=AxiomReport(
            ok=not failures,
            failures=failures,
            root_value=root_value,
            increase_checked=checked,
            invariance_note=note,
        ),
        harmonic=HarmonicReport(
            all_zero=vals == [Fraction(0)],
            vertices_checked=checked,
            defect_values=vals,
            uniform_defect=vals[0] if len(vals) == 1 else None,
            worst=worst,
        ),
        d=d,
    )


def compute_r(
    g: GraphOracle,
    h: HeightFunction,
    orbit_reps: Optional[Sequence[object]] = None,
    bound: int = 8,
) -> Optional[int]:
    """Least r <= bound such that from each orbit representative u, every
    other orbit contains a vertex v' with h(u) < h(v') reachable by a
    self-avoiding walk of length <= r whose interior heights lie strictly
    between h(u) and h(v'). Returns 0 when a single orbit (transitive
    action), None when some pair needs more than `bound`.

    The walks are the bridge walker's (`saw._walk`): every vertex after u
    lies above h(u). Heights are carried from u, so any representative
    works for a height known only by transport.
    """
    from .saw import _walk

    if orbit_reps is None:
        orbit_reps = g.orbit_reps()
    if len(orbit_reps) <= 1:
        return 0
    if bound < 1:
        raise HeightError("bound must be >= 1")

    orbits = [g.orbit_label(u) for u in orbit_reps]
    best: Dict[Tuple[int, int], int] = {}
    for u, ou in zip(orbit_reps, orbits):
        missing = set(orbits) - {ou}
        for r in range(1, bound + 1):
            if not missing:
                break
            ends: list = []
            _walk(g, h, (u,), r, out=ends)
            for path, hw, top in ends:
                ow = g.orbit_label(path[-1])
                # `top` is the running maximum before the last step.
                if ow in missing and hw > top:
                    missing.discard(ow)
                    best[ou, ow] = min(best.get((ou, ow), r), r)
        if missing:
            return None
    return max(best.values(), default=0)

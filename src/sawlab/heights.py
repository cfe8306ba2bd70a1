"""Height functions: harmonic solutions on periodic graphs, integer
repair to increase-everywhere height functions, and axiom verification.

A difference-invariant function on the cover of a PeriodicGraph is
affine: value(o, x) = f(o) + <lambda, x>. Harmonicity at each orbit is
deg(o) * f(o) = sum over edges (o, o2, t) of (f(o2) + <lambda, t>),
a finite rational linear system solved exactly. A basis of solutions
can then be combined and scaled into an integer-valued height function
that has a strictly lower and a strictly higher neighbor at every
vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._linalg import solve_unique
from .graphs import DEFAULT_BALL_BUDGET, Ball, GraphOracle, PeriodicGraph, PGOracle, ball
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
    subgroup: str = ""

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
    subgroup: str = "coordinate translations"

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

    subgroup: str = "end-fixing automorphisms"
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
    subgroup: str = "left multiplication"

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
    subgroup: str = "Z^d translations"

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
    convention: str = "walk",
):
    """Carry `h` over a BFS of the radius-`radius` ball around `start`.

    Fills the empty `ids` (vertex -> id, in BFS order, `start` = 0) and
    `heights` (per id: `h.origin` at the start, else `h.across` along the
    first edge in; 0 if `h` is None). With `above`, only edges into
    vertices above the start are followed, and distance is measured along
    them. Yields (depth, ids its followed edges reach in neighbor order)
    for each vertex at distance depth < `radius`, in id order. An edge
    that gives a kept vertex a second height raises HeightConflict. The
    "walk" `convention` keeps no vertex at distance `radius`: each edge
    into one gets a fresh id. "induced" keeps them and also checks the
    edges between two of them, as in an induced `graphs.Ball`.
    """
    across = None if h is None else h.across
    h0 = 0 if h is None else h.origin(start)
    floor = h0 if above else None
    closed = convention == "induced"
    ids[start] = 0
    heights.append(h0)
    vertices = [start]
    lo = 0
    for depth in range(radius + closed):
        shell = depth == radius
        keep = closed or depth < radius - 1
        hi = len(vertices)
        for i in range(lo, hi):
            hv = heights[i]
            row = []
            for w, label in g.neighbors(vertices[i]):
                hw = 0 if across is None else across(hv, w, label)
                if floor is not None and hw <= floor:
                    continue
                j = ids.get(w)
                if j is None:
                    if shell:
                        continue
                    j = len(heights)
                    heights.append(hw)
                    if keep:
                        ids[w] = j
                        vertices.append(w)
                elif heights[j] != hw:
                    raise HeightConflict(w, heights[j], hw)
                row.append(j)
            yield depth, row
        lo = hi


def height_table(g: GraphOracle, h: HeightFunction, b: Ball) -> List[int]:
    """Heights of all ball vertices, aligned with b.vertices.

    A height with values at vertices is read directly; any other is
    carried from the root by `transport`, checked on every edge between
    two ball vertices.
    """
    if h.at(g.root) is not None:
        return [h.at(v) for v in b.vertices]
    ids: Dict[object, int] = {}
    values: List[int] = []
    for _ in transport(g, h, g.root, b.radius, ids, values, convention="induced"):
        pass
    return [values[ids[v]] for v in b.vertices]


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

    def is_constant(self) -> bool:
        return all(l == 0 for l in self.lam) and len(set(self.f)) == 1


def harmonic_residuals(
    pg: PeriodicGraph, lam: Sequence[Fraction], f: Sequence[Fraction]
) -> List[Fraction]:
    """Per-orbit residual deg(o) f(o) - sum(f(o2) + <lam, t>); zero iff harmonic."""
    out = []
    for o in range(1, pg.orbit_count + 1):
        total = Fraction(0)
        for o2, t, _label in pg.out_edges(o):
            total += f[o2 - 1] + sum(
                Fraction(l) * c for l, c in zip(lam, t)
            )
        out.append(pg.degree(o) * f[o - 1] - total)
    return out


def _solve_for_lambda(
    pg: PeriodicGraph, lam: Sequence[Fraction], pinned_orbit: int, pinned_value: Fraction
) -> Tuple[Fraction, ...]:
    """Solve the orbit harmonicity system with one orbit's value pinned.

    The equation of the pinned orbit is dropped; for a connected quotient
    the remaining system is uniquely solvable and the dropped equation
    follows because all equations sum to zero.
    """
    m = pg.orbit_count
    unknowns = [o for o in range(1, m + 1) if o != pinned_orbit]
    col = {o: i for i, o in enumerate(unknowns)}
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    for o in unknowns:
        row = [Fraction(0)] * len(unknowns)
        row[col[o]] += pg.degree(o)
        b = Fraction(0)
        for o2, t, _label in pg.out_edges(o):
            b += sum(Fraction(l) * c for l, c in zip(lam, t))
            if o2 == pinned_orbit:
                b += pinned_value
            else:
                row[col[o2]] -= 1
        rows.append(row)
        rhs.append(b)
    if unknowns:
        sol = solve_unique(rows, rhs)
    else:
        sol = []
    f = [Fraction(0)] * m
    f[pinned_orbit - 1] = Fraction(pinned_value)
    for o, i in col.items():
        f[o - 1] = sol[i]
    return tuple(f)


def solution_space(pg: PeriodicGraph) -> List[HarmonicSolution]:
    """Q-basis of harmonic difference-invariant functions with f(1) = 0:
    the harmonic extension of lambda = e_i from orbit 1, one per lattice
    direction.

    A PeriodicGraph is connected, so by the matrix-tree theorem its
    quotient Laplacian with orbit 1's row and column removed has a
    non-zero determinant (the number of spanning trees). Each extension
    therefore exists and is unique, and no solution with lambda = 0 other
    than the constants exists.
    """
    return [
        harmonic_extension(pg, 1, [int(j == i) for j in range(pg.dim)])
        for i in range(pg.dim)
    ]


def harmonic_extension(
    pg: PeriodicGraph,
    base_orbit: int,
    lam: Sequence[Fraction | int],
    offset: Fraction | int = 0,
) -> HarmonicSolution:
    """Unique harmonic extension of the affine data F(base_orbit, x) =
    offset + <lam, x> from the base orbit to the whole cover."""
    if not (1 <= base_orbit <= pg.orbit_count):
        raise HeightError(f"base orbit {base_orbit} out of range")
    lam_f = tuple(Fraction(l) for l in lam)
    if len(lam_f) != pg.dim:
        raise HeightError("lambda length does not match the lattice dimension")
    f = _solve_for_lambda(pg, lam_f, pinned_orbit=base_orbit, pinned_value=Fraction(offset))
    return HarmonicSolution(pg=pg, lam=lam_f, f=f)


class RepairExhausted(RuntimeError):
    """No integer combination within the coefficient bound increases everywhere."""


def _strictly_increasing_everywhere(
    pg: PeriodicGraph, lam: Sequence[Fraction], f: Sequence[Fraction]
) -> Optional[List[Tuple[int, Fraction, Fraction]]]:
    """Check every orbit has a strictly lower and higher neighbor value.

    Returns per-orbit witnesses (orbit, lower value, higher value) on
    success, None on failure. Checking one representative per orbit
    suffices: values are affine in x, so the neighbor pattern repeats.
    """
    witnesses = []
    for o in range(1, pg.orbit_count + 1):
        here = f[o - 1]
        lower = None
        higher = None
        for o2, t, _label in pg.out_edges(o):
            val = f[o2 - 1] + sum(Fraction(l) * c for l, c in zip(lam, t))
            if val < here and (lower is None or val < lower):
                lower = val
            if val > here and (higher is None or val > higher):
                higher = val
        if lower is None or higher is None:
            return None
        witnesses.append((o, lower, higher))
    return witnesses


def _coefficient_candidates(count: int, max_coeff: int):
    """Integer coefficient vectors by max-norm ring, then by number of
    non-zero entries, then lexicographically descending. This tries
    single basis solutions with +1 first. Lazy: the first candidates
    come without listing a ring, which has (2 * ring + 1)^count vectors."""
    for ring in range(1, max_coeff + 1):
        for nonzero in range(1, count + 1):
            for c in _descending_vectors(count, nonzero, ring):
                if max(map(abs, c)) == ring:
                    yield c


def _descending_vectors(count: int, nonzero: int, bound: int):
    """Vectors of `count` integers in [-bound, bound] with exactly
    `nonzero` non-zero entries, lexicographically descending."""
    if count == 0:
        if nonzero == 0:
            yield ()
        return
    for first in range(bound, -bound - 1, -1):
        rest = nonzero - (first != 0)
        if 0 <= rest < count:
            for tail in _descending_vectors(count - 1, rest, bound):
                yield (first,) + tail


def increase_repair(
    pg: PeriodicGraph,
    basis: Optional[Sequence[HarmonicSolution]] = None,
    max_coeff: int = 8,
    name: str = "repaired",
) -> PeriodicHeight:
    """Integer-valued harmonic height function increasing everywhere,
    built as an integer combination of basis solutions scaled to clear
    denominators. Deterministic search order over small coefficients."""
    if basis is None:
        basis = solution_space(pg)
    basis = [s for s in basis if not s.is_constant()]
    if not basis:
        raise RepairExhausted("basis has no non-constant solution")
    # An orbit whose increments are zero in every basis solution has them
    # zero in every combination, so every candidate would fail there.
    for o in range(1, pg.orbit_count + 1):
        if all(s.value(o2, t) == s.f[o - 1] for s in basis for o2, t, _ in pg.out_edges(o)):
            raise RepairExhausted(f"orbit {o} has no neighbor of another height in any solution")
    for coeffs in _coefficient_candidates(len(basis), max_coeff):
        lam = tuple(
            sum(Fraction(c) * s.lam[i] for c, s in zip(coeffs, basis))
            for i in range(pg.dim)
        )
        f = tuple(
            sum(Fraction(c) * s.f[o] for c, s in zip(coeffs, basis))
            for o in range(pg.orbit_count)
        )
        if _strictly_increasing_everywhere(pg, lam, f) is None:
            continue
        denom = 1
        for q in itertools.chain(lam, f):
            denom = denom * q.denominator // gcd(denom, q.denominator)
        return PeriodicHeight(
            f=tuple(int(q * denom) for q in f),
            lam=tuple(int(q * denom) for q in lam),
            scale=denom,
            height_name=name,
        )
    raise RepairExhausted(
        f"no increasing combination with coefficients bounded by {max_coeff}"
    )


def repair_document(pg: PeriodicGraph, h: PeriodicHeight) -> dict:
    """Exportable description: exact fractions, scale, increase witnesses."""
    lam_frac = [Fraction(l, h.scale) for l in h.lam]
    f_frac = [Fraction(x, h.scale) for x in h.f]
    wit = _strictly_increasing_everywhere(
        pg, [Fraction(l) for l in h.lam], [Fraction(x) for x in h.f]
    )
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
    names: "x" and "y" (coordinates), "identity" (the coordinate of a
    one-orbit line), "level" (grandparent) and "ghf" (the word-sum
    height of the model's presentation preset).
    """
    if name is None or name == "auto":
        name = g.default_height
        if name is None:
            raise HeightError(f"no default height for model {g.name!r}")
    if isinstance(g, PGOracle) and name in (g.default_height, "repaired"):
        return increase_repair(g.pg, name=name)
    if name == "x":
        return CoordinateHeight(0, label="x")
    if name == "y":
        return CoordinateHeight(1, label="y")
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


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise HeightError("radius must be >= 0")


def verify_height_axioms(
    g: GraphOracle,
    h: HeightFunction,
    radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
) -> AxiomReport:
    """Check h(root) = 0, difference-invariance, and that every vertex of
    the radius-`radius` ball has a strictly lower and higher neighbor."""
    _check_radius(radius)
    b = ball(g, radius + 1, max_vertices=max_vertices)
    return _axioms(g, h, radius, b, height_table(g, h, b))


def _axioms(
    g: GraphOracle, h: HeightFunction, radius: int, b: Ball, values: List[int]
) -> AxiomReport:
    """`verify_height_axioms` on the radius+1 ball `b` and its heights."""
    failures: List[str] = []
    root_idx = b.index[g.root]
    root_value = values[root_idx]
    if root_value != 0:
        failures.append(f"h(root) = {root_value}, expected 0")

    adj = b.adjacency()
    checked = 0
    for i, v in enumerate(b.vertices):
        if b.distances[i] > radius:
            continue
        hv = values[i]
        lower = any(values[j] < hv for j in adj[i])
        higher = any(values[j] > hv for j in adj[i])
        if not lower or not higher:
            missing = "lower" if not lower else "higher"
            failures.append(
                f"no strictly {missing} neighbor at {g.canonical_key(v).decode()} "
                f"(h = {hv})"
            )
        checked += 1

    # Difference-invariance. A periodic height is affine in the lattice
    # coordinate on each orbit, h(o, x) = c_o + <m_o, x>, so it is
    # invariant exactly when m_o = lam, that is when each unit translation
    # of the orbit's base point raises h by lam_i: d checks per orbit
    # decide it. Coordinate heights are checked by sampling; word-sum and
    # level heights are invariant structurally (additivity under left
    # multiplication / end-preserving maps).
    if isinstance(h, PeriodicHeight) and isinstance(g, PGOracle):
        d = g.pg.dim
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        bad = 0
        for o in range(1, g.pg.orbit_count + 1):
            v = (o, (0,) * d)
            for lam_i, t in zip(h.lam, units):
                if h.at(g.translate(v, t)) - h.at(v) != lam_i:
                    bad += 1
        if bad:
            failures.append(f"difference-invariance violated at {bad} translates")
        note = "exact (all orbits x translation window)"
    elif isinstance(h, CoordinateHeight):
        deltas = set()
        for i, v in enumerate(b.vertices):
            for j in adj[i]:
                deltas.add(values[j] - values[i])
        if not deltas <= {-1, 0, 1}:
            failures.append(f"unexpected edge increments {sorted(deltas)}")
        note = "sampled edge increments on the ball"
    else:
        note = "structural (invariant by construction)"

    return AxiomReport(
        ok=not failures,
        failures=failures,
        root_value=root_value,
        increase_checked=checked,
        invariance_note=note,
    )


@dataclass
class HarmonicReport:
    all_zero: bool
    vertices_checked: int
    defect_values: List[Fraction]
    uniform_defect: Optional[Fraction]
    worst: Optional[Tuple[str, Fraction]]

    def __bool__(self) -> bool:
        return self.all_zero


def verify_harmonic(
    g: GraphOracle,
    h: HeightFunction,
    radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
) -> HarmonicReport:
    """Exact per-vertex harmonic defect h(v) - mean(neighbor heights) over
    the radius-`radius` ball (neighbors live in the radius+1 ball)."""
    _check_radius(radius)
    b = ball(g, radius + 1, max_vertices=max_vertices)
    return _harmonic(g, radius, b, height_table(g, h, b))


def _harmonic(g: GraphOracle, radius: int, b: Ball, values: List[int]) -> HarmonicReport:
    """`verify_harmonic` on the radius+1 ball `b` and its heights."""
    adj = b.adjacency()
    defects: Dict[Fraction, int] = {}
    worst: Optional[Tuple[str, Fraction]] = None
    checked = 0
    for i, v in enumerate(b.vertices):
        if b.distances[i] > radius:
            continue
        neigh = adj[i]
        # Interior vertices of the (radius+1)-ball see all their G-neighbors.
        defect = Fraction(values[i]) - Fraction(sum(values[j] for j in neigh), len(neigh))
        defects[defect] = defects.get(defect, 0) + 1
        if worst is None or abs(defect) > abs(worst[1]):
            worst = (g.canonical_key(v).decode(), defect)
        checked += 1
    vals = sorted(defects)
    return HarmonicReport(
        all_zero=vals == [Fraction(0)],
        vertices_checked=checked,
        defect_values=vals,
        uniform_defect=vals[0] if len(vals) == 1 else None,
        worst=worst,
    )


def compute_d(g: GraphOracle, h: HeightFunction, radius: int = 2) -> int:
    """Maximum |h(u) - h(v)| over the edges of the radius-`radius` ball.

    For the catalog models every edge type appears within radius 2 of the
    root, so the ball maximum equals the global maximum.
    """
    b = ball(g, radius)
    return _max_increment(b, height_table(g, h, b))


def _max_increment(b: Ball, values: List[int]) -> int:
    return max(abs(values[i] - values[j]) for i, j in b.edges)


class Verification(NamedTuple):
    axioms: AxiomReport
    harmonic: HarmonicReport
    d: int


def verify_on_one_ball(
    g: GraphOracle,
    h: HeightFunction,
    radius: int,
    d_radius: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
) -> Verification:
    """`verify_height_axioms` and `verify_harmonic` at `radius`, and
    `compute_d` at `d_radius`, read from one ball and one height table.

    The ball has radius max(radius + 1, d_radius); each check reads the
    prefix (`Ball.restrict`) of the radius it would have built, so the
    reports equal those of the three separate calls.
    """
    _check_radius(radius)
    b = ball(g, max(radius + 1, d_radius), max_vertices=max_vertices)
    values = height_table(g, h, b)

    def prefix(r: int) -> Tuple[Ball, List[int]]:
        sub = b.restrict(r)
        return sub, values[:sub.vertex_count()]

    return Verification(
        axioms=_axioms(g, h, radius, *prefix(radius + 1)),
        harmonic=_harmonic(g, radius, *prefix(radius + 1)),
        d=_max_increment(*prefix(d_radius)),
    )


def compute_r(
    g: GraphOracle,
    h: HeightFunction,
    orbit_reps: Optional[Sequence[object]] = None,
    bound: int = 8,
    orbit_of: Optional[Callable[[object], int]] = None,
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
    if orbit_of is None:
        orbit_of = g.orbit_label
    if len(orbit_reps) <= 1:
        return 0
    if bound < 1:
        raise HeightError("bound must be >= 1")

    orbits = [orbit_of(u) for u in orbit_reps]
    best: Dict[Tuple[int, int], int] = {}
    for u, ou in zip(orbit_reps, orbits):
        missing = set(orbits) - {ou}
        for r in range(1, bound + 1):
            if not missing:
                break
            ends: list = []
            _walk(g, h, (u,), r, out=ends)
            for path, hw, top in ends:
                ow = orbit_of(path[-1])
                # `top` is the running maximum before the last step.
                if ow in missing and hw > top:
                    missing.discard(ow)
                    best[ou, ow] = min(best.get((ou, ow), r), r)
        if missing:
            return None
    return max(best.values(), default=0)

"""Independent reference enumerators and frozen expected values.

Everything here is deliberately primitive: explicit coordinate walks,
full path lists, no pruning beyond the definitions themselves, and no
imports from the package under test (the reference model resolver is
handed the graphs module, whose constructors it calls, and the
reference repair a voltage graph, whose edges it reads). The frozen
tables below were produced by running this file directly (python
tests/oracles.py) and are asserted against the fast implementations in
the test suite.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Coordinate neighbor functions (no shared code with the package)
# ---------------------------------------------------------------------------


def zd_neighbors(d: int) -> Callable[[tuple], List[tuple]]:
    def neigh(v: tuple) -> List[tuple]:
        out = []
        for i in range(d):
            for delta in (1, -1):
                w = list(v)
                w[i] += delta
                out.append(tuple(w))
        return out

    return neigh


def cylinder_neighbors(m: int) -> Callable[[tuple], List[tuple]]:
    """Z x (Z/m): (x, k) with k wrapping mod m."""

    def neigh(v: tuple) -> List[tuple]:
        x, k = v
        return [(x + 1, k), (x - 1, k), (x, (k + 1) % m), (x, (k - 1) % m)]

    return neigh


def ladder_dihedral_neighbors(m: int) -> Callable[[tuple], List[tuple]]:
    """(infinite dihedral) x (Z/m) as (p, k): s1 pairs {2j, 2j+1}, s2
    pairs {2j-1, 2j}, then k + 1 and k - 1 around the cycle."""

    def neigh(v: tuple) -> List[tuple]:
        p, k = v
        s1, s2 = (p + 1, p - 1) if p % 2 == 0 else (p - 1, p + 1)
        return [(s1, k), (s2, k), (p, (k + 1) % m), (p, (k - 1) % m)]

    return neigh


def dihedral_line_neighbors(p: int) -> List[int]:
    """The infinite dihedral group on Z: s1 pairs {2j, 2j+1}, s2 pairs
    {2j-1, 2j}."""
    return [p + 1, p - 1] if p % 2 == 0 else [p - 1, p + 1]


def brick_wall_neighbors(v: tuple) -> List[tuple]:
    """Honeycomb lattice in brick-wall coordinates: every vertex has
    east and west neighbors plus one vertical neighbor, up when x+y is
    even and down when odd. 3-regular, girth 6."""
    x, y = v
    vertical = (x, y + 1) if (x + y) % 2 == 0 else (x, y - 1)
    return [(x + 1, y), (x - 1, y), vertical]


def truncated_square_neighbors(v: tuple) -> List[tuple]:
    """4.8.8 lattice: a small square at each integer point with corners
    E, N, W, S (0..3); square edges plus E-W and N-S links between
    adjacent cells. 3-regular."""
    x, y, c = v
    square = [(x, y, (c + 1) % 4), (x, y, (c - 1) % 4)]
    if c == 0:
        return square + [(x + 1, y, 2)]
    if c == 2:
        return square + [(x - 1, y, 0)]
    if c == 1:
        return square + [(x, y + 1, 3)]
    return square + [(x, y - 1, 1)]


def voltage_cover_neighbors(doc: dict) -> Callable[[tuple], List[tuple]]:
    """Cover of a voltage-graph document {"orbits", "dim", "edges"}: vertex
    (o, x) is adjacent to (o2, x + t) for every edge [o1, o2, t] and to
    (o1, x - t) from (o2, x); parallel copies of a directed edge count once."""
    out: Dict[int, List[Tuple[int, tuple]]] = {}
    for o1, o2, t in doc["edges"]:
        for a, b, s in ((o1, o2, tuple(t)), (o2, o1, tuple(-c for c in t))):
            if (b, s) not in out.setdefault(a, []):
                out[a].append((b, s))

    def neigh(v: tuple) -> List[tuple]:
        o, x = v
        return [(o2, tuple(c + d for c, d in zip(x, s))) for o2, s in out.get(o, [])]

    return neigh


# ---------------------------------------------------------------------------
# Labelled group oracles on plain vertices (reduced words, lamp sets, a torus)
# ---------------------------------------------------------------------------


class Tree3WordOracle:
    """The 3-regular tree as reduced words in Z * Z/2, held as strings:
    'a' and 'A' are inverse, 'b' is an involution; neighbors s1 (a), s2
    (b), t (A), each cancelling the last letter if it is its inverse."""

    name = "tree3"
    root = ""

    def neighbors(self, v: str) -> Tuple[Tuple[str, str], ...]:
        out = []
        for label, ch, inverse in (("s1", "a", "A"), ("s2", "b", "b"), ("t", "A", "a")):
            out.append((v[:-1] if v.endswith(inverse) else v + ch, label))
        return tuple(out)

    def canonical_key(self, v: str) -> bytes:
        return repr(v).encode()


class LamplighterSetOracle:
    """The lamplighter group as (frozenset of lit lamps, marker position):
    a toggles the lamp under the marker, t and u move it right and left."""

    name = "lamplighter"
    root = (frozenset(), 0)

    def neighbors(self, v: tuple) -> Tuple[Tuple[tuple, str], ...]:
        lamps, pos = v
        return (
            ((lamps ^ {pos}, pos), "a"),
            ((lamps, pos + 1), "t"),
            ((lamps, pos - 1), "u"),
        )

    def canonical_key(self, v: tuple) -> bytes:
        lamps, pos = v
        return f"{sorted(lamps)}|{pos}".encode()


class TorusOracle:
    """The Cayley graph of Z_p x Z_q on (a, b): x and X step a by +1 and
    -1, y and Y step b. With p != q, x <-> X and y <-> Y are label
    symmetries but x <-> y is not, and the closed words x^p and y^q tell
    them apart only at distance p // 2 and q // 2."""

    cayley = True
    root = (0, 0)

    def __init__(self, p: int = 6, q: int = 8):
        self.p, self.q = p, q
        self.name = f"torus{p}x{q}"

    def neighbors(self, v: tuple) -> Tuple[Tuple[tuple, str], ...]:
        a, b = v
        p, q = self.p, self.q
        return (
            (((a + 1) % p, b), "x"),
            (((a - 1) % p, b), "X"),
            ((a, (b + 1) % q), "y"),
            ((a, (b - 1) % q), "Y"),
        )

    def degree_bound(self) -> int:
        return 4


# ---------------------------------------------------------------------------
# Reference model resolver: the if-chain the catalog table replaced
# ---------------------------------------------------------------------------


def reference_catalog(lib, name: str, param: Optional[int] = None):
    """Build a catalog oracle by name. `param` is d for zd, m for the
    quotient families. `lib` is the graphs module, whose oracle and
    voltage-graph constructors this dispatch calls."""
    if name in ("zd", "cylinder_zd", "ladder_dihedral") and param is None:
        what = "a dimension parameter" if name == "zd" else "the cycle length m"
        raise lib.GraphError(f"{name} needs {what}")
    if name == "zd":
        return lib.PGOracle(lib.zd_pg(param), f"zd{param}", lib._lattice_key, "x")
    if name == "dihedral":
        return lib.PGOracle(lib.dihedral_line_pg(), "dihedral", lib._line_key, "identity")
    if name == "tree3":
        return lib.Tree3Oracle()
    if name == "heisenberg":
        return lib.HeisenbergOracle()
    if name == "lamplighter":
        return lib.LamplighterOracle()
    if name == "hexagonal":
        return lib.PGOracle(lib.hexagonal_pg(), "hexagonal")
    if name == "square_octagon":
        return lib.PGOracle(lib.square_octagon_pg(), "square_octagon")
    if name == "cylinder_zd":
        return lib.PGOracle(lib.cylinder_pg(param), f"cylinder_zd{param}", lib._cylinder_key, "x")
    if name == "ladder_dihedral":
        return lib.PGOracle(
            lib.ladder_dihedral_pg(param), f"ladder_dihedral{param}", lib._ladder_key, "x"
        )
    if name == "grandparent":
        return lib.GrandparentOracle()
    raise lib.GraphError(f"unknown preset {name!r}")


def reference_resolve_model(lib, spec: str):
    """Parse compact model strings like zd2, cylinder8, ladder_dihedral6
    with fixed family tuples, and build them by `reference_catalog`."""
    s = spec.strip().lower()
    m = re.match(r"^([a-z_]+?)_?(\d+)?$", s)
    if not m:
        raise lib.GraphError(f"cannot parse model {spec!r}")
    base, num = m.group(1), m.group(2)
    param = int(num) if num is not None else None
    aliases = {
        "cylinder": "cylinder_zd",
        "cylinder_zd": "cylinder_zd",
        "ladder": "ladder_dihedral",
        "ladder_dihedral": "ladder_dihedral",
        "dihedral_line": "dihedral",
        "zd": "zd",
    }
    base = aliases.get(base, base)
    if base == "tree" and param == 3:
        return reference_catalog(lib, "tree3")
    if base in ("tree3", "square_octagon", "hexagonal", "dihedral", "heisenberg",
                "lamplighter", "grandparent"):
        if base == "tree3" or param is None:
            return reference_catalog(lib, base)
        raise lib.GraphError(f"model {base} takes no numeric parameter")
    if base in ("zd", "cylinder_zd", "ladder_dihedral"):
        if param is None:
            raise lib.GraphError(f"model {base} needs a numeric parameter, e.g. {base}2")
        return reference_catalog(lib, base, param)
    raise lib.GraphError(f"unknown model {spec!r}")


# ---------------------------------------------------------------------------
# Reference harmonic repair: one solve per lattice direction
# ---------------------------------------------------------------------------


def _solve_nonsingular(rows: List[List[int]], rhs: List[Fraction]) -> List[Fraction]:
    """x with rows x = rhs, by Gauss-Jordan elimination over Q."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], [x / m[p][c] for x in m[p]]
        for r in range(n):
            factor = m[r][c]
            if r != c and factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return [row[n] for row in m]


def reference_extension(pg, lam) -> List[Fraction]:
    """f, with f(1) = 0, of the harmonic function f(o) + <lam, x> on the
    cover of the voltage graph `pg` (read through its orbit_count, degree
    and out_edges): the orbit system with orbit 1's equation dropped,
    solved for this lam on its own."""
    m = pg.orbit_count
    rows, rhs = [], []
    for o in range(2, m + 1):
        row = [0] * (m - 1)
        row[o - 2] += pg.degree(o)
        b = Fraction(0)
        for o2, t, _label in pg.out_edges(o):
            b += sum(l * c for l, c in zip(lam, t))
            if o2 != 1:
                row[o2 - 2] -= 1
        rows.append(row)
        rhs.append(b)
    return [Fraction(0)] + _solve_nonsingular(rows, rhs)


def reference_increase_repair(pg) -> Optional[Tuple[tuple, tuple, int]]:
    """(f, lam, scale) of the repaired height of the voltage graph `pg`
    (read through its orbit_count, dim, degree and out_edges), or None when
    no harmonic height increases everywhere.

    Basis solution i is `reference_extension` of lam = e_i. The candidates
    are e_1..e_b, -e_b..-e_1, then (1, t, ..., t^(b-1)) for t = 1..M(b-1);
    the first whose every orbit has a strictly lower and a strictly higher
    neighbor wins, scaled to integers.
    """
    m, d = pg.orbit_count, pg.dim
    units = [[int(j == i) for j in range(d)] for i in range(d)]
    basis = [(lam, reference_extension(pg, lam)) for lam in units]

    def increments(lam, f, o):
        return [f[o2 - 1] + sum(l * c for l, c in zip(lam, t)) - f[o - 1]
                for o2, t, _label in pg.out_edges(o)]

    orbits = range(1, m + 1)
    if not basis or any(
        all(x == 0 for lam, f in basis for x in increments(lam, f, o)) for o in orbits
    ):
        return None
    b = len(basis)
    units = [[int(i == j) for j in range(b)] for i in range(b)]
    curve = [[t**k for k in range(b)] for t in range(1, m * (b - 1) + 1)]
    for coeffs in units + [[-c for c in e] for e in reversed(units)] + curve:
        lam = [sum(c * s[0][i] for c, s in zip(coeffs, basis)) for i in range(d)]
        f = [sum(c * s[1][o] for c, s in zip(coeffs, basis)) for o in range(m)]
        steps = [increments(lam, f, o) for o in orbits]
        if all(any(x < 0 for x in xs) and any(x > 0 for x in xs) for xs in steps):
            scale = 1
            for q in lam + f:
                scale = scale * q.denominator // gcd(scale, q.denominator)
            return (tuple(int(q * scale) for q in f), tuple(int(q * scale) for q in lam),
                    scale)
    raise AssertionError("no candidate increases everywhere")


# ---------------------------------------------------------------------------
# Brute-force walk counting (path lists, no cleverness)
# ---------------------------------------------------------------------------


def brute_saw_counts(
    neighbors: Callable[[tuple], Iterable[tuple]], root, n_max: int
) -> List[int]:
    """counts[n] = number of n-step self-avoiding walks from root."""
    counts = [0] * (n_max + 1)

    def extend(path: List):
        n = len(path) - 1
        counts[n] += 1
        if n == n_max:
            return
        for w in neighbors(path[-1]):
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()

    extend([root])
    return counts


def brute_bridge_counts(
    neighbors: Callable[[tuple], Iterable[tuple]],
    root,
    height: Callable[[tuple], int],
    n_max: int,
) -> List[int]:
    """counts[n] = number of n-step bridges from root: every vertex after
    the start is strictly higher than the start, and the final vertex is
    weakly highest on the walk."""
    counts = [0] * (n_max + 1)
    h0 = height(root)

    def extend(path: List, heights: List[int]):
        n = len(path) - 1
        if max(heights) == heights[-1]:
            counts[n] += 1
        if n == n_max:
            return
        for w in neighbors(path[-1]):
            hw = height(w)
            if hw <= h0 or w in path:
                continue
            path.append(w)
            heights.append(hw)
            extend(path, heights)
            path.pop()
            heights.pop()

    counts[0] = 1
    for w in neighbors(root):
        hw = height(w)
        if hw > h0:
            extend([root, w], [h0, hw])
    return counts


def iterative_reference(
    neighbors: Callable[[tuple], Iterable[tuple]],
    root,
    n_max: int,
    budget: int,
    factor: int,
    height: Optional[Callable[[tuple], int]] = None,
) -> Tuple[Dict[int, int], int, int, bool]:
    """Iterative deepening under a node budget, one full pass per depth.

    Pass k walks every feasible walk of length <= k from the root (SAWs,
    or with `height` every vertex after the root strictly above it) and
    counts those of length k (bridges: ending weakly highest). It enters
    P_k nodes, the root included. Before pass k the schedule stops if
    the nodes used so far plus `factor` * P_(k-1) exceed `budget`.
    Returns (counts, nodes used, high-water mark, partial).
    """
    h0 = height(root) if height is not None else 0
    counts = {0: 1}
    nodes_used = last_pass = 1
    high_water = 0
    for depth in range(1, n_max + 1):
        if nodes_used + last_pass * factor > budget:
            return counts, nodes_used, high_water, True
        tally = [0, 1]  # walks of length depth, nodes entered

        def extend(path: List, top: int):
            for w in neighbors(path[-1]):
                hw = height(w) - h0 if height is not None else 0
                if w in path or (height is not None and hw <= 0):
                    continue
                tally[1] += 1
                if len(path) == depth:
                    tally[0] += hw >= top
                else:
                    extend(path + [w], max(top, hw))

        extend([root], 0)
        counts[depth] = tally[0]
        nodes_used += tally[1]
        last_pass = tally[1]
        high_water = depth
    return counts, nodes_used, high_water, False


# ---------------------------------------------------------------------------
# Frozen walk kernels: one call per node entered, the last level included
# ---------------------------------------------------------------------------


def reference_walk(g, h, path: Sequence, remaining: int, hv: int = 0, hmax: int = 0,
                   out: Optional[list] = None) -> Tuple[List[int], List[int]]:
    """The oracle walker `saw._walk` as it was while it entered every
    node, the last level too: per-depth (hits, nodes) and the `out`
    listing, by the same contract."""
    neighbors = g.neighbors
    visited = dict.fromkeys(path)
    bridge = h is not None
    h0 = 0
    if bridge:
        across = h.across
        h0 = h.at(path[0]) or 0  # the word sum reads None: it starts at 0
    hits = [0] * (remaining + 1)
    nodes = [0] * (remaining + 1)

    def extend(v, hv, hmax, depth):
        last = depth == remaining
        found = entered = 0
        hw = top = 0
        for w, label in neighbors(v):
            if w in visited:
                continue
            if bridge:
                hw = across(hv, w, label)
                if hw <= h0:
                    continue
                top = hw if hw > hmax else hmax
            entered += 1
            if hw == top:
                found += 1
            if not last:
                visited[w] = None
                extend(w, hw, top, depth + 1)
                del visited[w]
            elif out is not None:
                out.append((tuple(visited) + (w,), hw - h0, hmax - h0))
        hits[depth] += found
        nodes[depth] += entered

    extend(path[-1], hv + h0, hmax + h0, 1)
    return hits, nodes


def reference_walk_ball(ball, path: Sequence[int], remaining: int, hmax: int = 0,
                        out: Optional[list] = None) -> Tuple[List[int], List[int]]:
    """The compiled-ball walker `saw._walk_ball` as it was while it
    entered every node, the last level too; it reads only `ball.rows`
    and `ball.heights`."""
    rows, heights = ball.rows, ball.heights
    visited = bytearray(len(heights))
    for i in path:
        visited[i] = 1
    trail = list(path)
    hits = [0] * (remaining + 1)
    nodes = [0] * (remaining + 1)

    def extend(v, hmax, depth):
        found = entered = 0
        if depth == remaining:
            for w in rows[v]:
                if not visited[w]:
                    entered += 1
                    hw = heights[w]
                    if hw >= hmax:
                        found += 1
                    if out is not None:
                        out.append((tuple(trail) + (w,), hw, hmax))
        else:
            for w in rows[v]:
                if not visited[w]:
                    entered += 1
                    hw = heights[w]
                    if hw >= hmax:
                        found += 1
                        top = hw
                    else:
                        top = hmax
                    visited[w] = 1
                    if out is not None:
                        trail.append(w)
                    extend(w, top, depth + 1)
                    if out is not None:
                        trail.pop()
                    visited[w] = 0
        hits[depth] += found
        nodes[depth] += entered

    extend(path[-1], hmax, 1)
    return hits, nodes


def closure_orbits(paths: Sequence[tuple], maps: Sequence[Sequence[int]]) -> List[Tuple[tuple, int]]:
    """The orbits of the listed `paths` (tuples of vertex ids) under the
    vertex maps `maps`, found by closing each new path under every map
    until nothing new appears: [(first listed path of each orbit, number
    of listed paths in it)], in listing order. A path listed twice counts
    twice."""
    orbit_of: Dict[tuple, int] = {}
    orbits: List[List] = []
    for path in paths:
        if path not in orbit_of:
            orbit_of[path] = len(orbits)
            orbits.append([path, 0])
            frontier = [path]
            while frontier:
                p = frontier.pop()
                for phi in maps:
                    image = tuple(phi[i] for i in p)
                    if image not in orbit_of:
                        orbit_of[image] = orbit_of[path]
                        frontier.append(image)
        orbits[orbit_of[path]][1] += 1
    return [tuple(orbit) for orbit in orbits]


def brute_compute_r(
    neighbors: Callable[[object], Iterable[Tuple[object, str]]],
    reps: Sequence,
    orbit_of: Callable[[object], int],
    bound: int,
    start_height: Callable[[object], int],
    carry: Callable[[int, object, str], int],
) -> Optional[int]:
    """The r of a height function by listing every self-avoiding walk.

    `neighbors(v)` lists (w, label); a walk from u starts at height
    start_height(u), and a step to w along `label` from height h reaches
    height carry(h, w, label). A walk u = p_0, ..., p_k = v with k >= 1
    joins u to the orbit of v when that orbit is not u's and
    h(u) < h(p_i) < h(v) for 0 < i < k and h(u) < h(v). Returns the
    largest, over ordered pairs of distinct representative orbits, of
    the shortest joining walk of length <= bound; 0 for one orbit; None
    if some pair has no such walk.
    """
    if len(reps) <= 1:
        return 0
    orbits = [orbit_of(u) for u in reps]
    shortest: Dict[Tuple[int, int], int] = {}

    def extend(path: List, heights: List[int], ou: int):
        k = len(path) - 1
        if k >= 1:
            hv, ov = heights[-1], orbit_of(path[-1])
            if (ov != ou and heights[0] < hv
                    and all(heights[0] < x < hv for x in heights[1:-1])):
                shortest[ou, ov] = min(shortest.get((ou, ov), k), k)
        if k == bound:
            return
        for w, label in neighbors(path[-1]):
            if w not in path:
                extend(path + [w], heights + [carry(heights[-1], w, label)], ou)

    for u, ou in zip(reps, orbits):
        extend([u], [start_height(u)], ou)
    pairs = [(a, b) for a in orbits for b in orbits if a != b]
    if any(p not in shortest for p in pairs):
        return None
    return max((shortest[p] for p in pairs), default=0)


def word_sum_heights(
    neighbors: Callable[[object], Iterable[Tuple[object, str]]],
    root,
    gamma: Dict[str, int],
    radius: int,
) -> Dict[object, int]:
    """Heights of the radius-`radius` ball: the sum of gamma over the
    labels of the first BFS path from the root to each vertex."""
    heights = {root: 0}
    frontier = [root]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w, label in neighbors(v):
                if w not in heights:
                    heights[w] = heights[v] + gamma[label]
                    nxt.append(w)
        frontier = nxt
    return heights


def raw_coordinate(v, i: int) -> int:
    """Coordinate i of a vertex as the model writes it: of the lattice
    point x of a periodic-graph cover vertex (o, x), or of a Heisenberg
    element (a, b, c)."""
    return v[1][i] if len(v) == 2 else v[i]


def reference_verify(
    neighbors: Callable[[object], Iterable[Tuple[object, str]]],
    root,
    height: Callable[[object], int],
    radius: int,
    key: Callable[[object], bytes],
) -> dict:
    """The checks of `heights.verify` by their definitions, on dicts.

    The neighbors of v are the distinct vertices other than v that
    `neighbors(v)` lists (the simple graph a ball induces), and vertices
    are visited in (distance, key) order. Checked are the vertices within
    `radius`: each needs a strictly lower and a strictly higher neighbor,
    and its defect is h(v) minus the mean of its neighbors' heights. d is
    the largest |h(v) - h(w)| over the edges within distance d_radius =
    max(2, min(radius, 4)). Returns the fields and properties of the
    `heights.Verification` record, each by its definition: `ok`,
    `all_zero` and `uniform_defect` from the failures and defects found
    here; the invariance note, and the exact invariance check of a
    periodic height, are left out.
    """
    d_radius = max(2, min(radius, 4))
    dist = {root: 0}
    frontier = [root]
    for depth in range(1, max(radius + 1, d_radius) + 1):
        nxt = []
        for v in frontier:
            for w, _label in neighbors(v):
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    order = sorted(dist, key=lambda v: (dist[v], key(v)))
    h = {v: height(v) for v in order}
    near = {v: {w for w, _label in neighbors(v) if w != v and w in dist} for v in order}

    failures = [] if h[root] == 0 else [f"h(root) = {h[root]}, expected 0"]
    defects = []
    worst = None
    checked = [v for v in order if dist[v] <= radius]
    for v in checked:
        around = [h[w] for w in near[v]]
        for missing, found in (("lower", min(around) < h[v]), ("higher", max(around) > h[v])):
            if not found:
                failures.append(f"no strictly {missing} neighbor at "
                                f"{key(v).decode()} (h = {h[v]})")
                break
        defect = h[v] - Fraction(sum(around), len(around))
        defects.append(defect)
        if worst is None or abs(defect) > abs(worst[1]):
            worst = (key(v).decode(), defect)
    d = max(abs(h[w] - h[v]) for v in order if dist[v] <= d_radius
            for w in near[v] if dist[w] <= d_radius)
    values = sorted(set(defects))
    return dict(
        ok=not failures, failures=failures, root_value=h[root], checked=len(checked),
        all_zero=values == [0], defect_values=values,
        uniform_defect=values[0] if len(values) == 1 else None, worst=worst, d=d,
    )


# ---------------------------------------------------------------------------
# Lattice index by minors
# ---------------------------------------------------------------------------


def _det(rows: List[List[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * prev


def minors_lattice_index(vectors: Sequence[Sequence[int]], d: int) -> int:
    """Index in Z^d of the lattice the integer vectors span: the gcd of
    all d x d minors of the matrix with those rows (0 if the rank is
    below d). Combinatorial in the number of vectors."""
    g = 0
    for subset in itertools.combinations(vectors, d):
        g = gcd(g, _det([list(v) for v in subset]))
    return g


# ---------------------------------------------------------------------------
# Rooted-ball extraction and a third-party isomorphism oracle
# ---------------------------------------------------------------------------


def coordinate_ball(
    neighbors: Callable[[tuple], Iterable[tuple]], root, radius: int
) -> Tuple[List[tuple], List[Tuple[int, int]], List[int]]:
    """BFS ball: (vertices, induced edge index pairs, distances)."""
    dist = {root: 0}
    order = [root]
    frontier = [root]
    for r in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in dist:
                    dist[w] = r + 1
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    index = {v: i for i, v in enumerate(order)}
    edges = set()
    for v in order:
        for w in neighbors(v):
            if w in index:
                a, b = index[v], index[w]
                if a != b:
                    edges.add((min(a, b), max(a, b)))
    return order, sorted(edges), [dist[v] for v in order]


def walk_filtered(ball, radius: int):
    """The walk ball: a `coordinate_ball` minus the edges whose two ends
    both lie at distance `radius`."""
    vertices, edges, distances = ball
    kept = [
        (a, b) for a, b in edges
        if not (distances[a] == radius and distances[b] == radius)
    ]
    return vertices, kept, distances


def joint_refine_reference(
    adj_a: List[List[int]],
    adj_b: List[List[int]],
    init_a: List,
    init_b: List,
) -> Tuple[List[int], List[int]]:
    """Color refinement of two graphs at once, every round in full: each
    vertex is renamed by the rank of (color, sorted neighbor colors)
    among the signatures of both graphs, until the names stop changing.
    The colors start as the ranks of the `init` values."""
    palette = {s: c for c, s in enumerate(sorted(set(init_a) | set(init_b)))}
    col_a = [palette[s] for s in init_a]
    col_b = [palette[s] for s in init_b]
    while True:
        sig_a = [
            (col_a[i], tuple(sorted(col_a[j] for j in adj_a[i])))
            for i in range(len(adj_a))
        ]
        sig_b = [
            (col_b[i], tuple(sorted(col_b[j] for j in adj_b[i])))
            for i in range(len(adj_b))
        ]
        palette = {s: c for c, s in enumerate(sorted(set(sig_a) | set(sig_b)))}
        new_a = [palette[s] for s in sig_a]
        new_b = [palette[s] for s in sig_b]
        if new_a == col_a and new_b == col_b:
            return col_a, col_b
        col_a, col_b = new_a, new_b


def rooted_isomorphic(ball_a, ball_b) -> bool:
    """networkx-based rooted isomorphism check (test oracle only)."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

    def build(ball):
        vertices, edges, distances = ball
        g = nx.Graph()
        # Distance from the root is isomorphism-invariant for rooted
        # graphs built as BFS balls, so encode it as a node color; the
        # root is the unique distance-0 node.
        for i in range(len(vertices)):
            g.add_node(i, dist=distances[i])
        g.add_edges_from(edges)
        return g

    ga, gb = build(ball_a), build(ball_b)
    if ga.number_of_nodes() != gb.number_of_nodes():
        return False
    if ga.number_of_edges() != gb.number_of_edges():
        return False
    matcher = GraphMatcher(ga, gb, node_match=categorical_node_match("dist", -1))
    return matcher.is_isomorphic()


def iso_radius_reference(
    ball: Callable, ball_iso: Callable, budget_error: type, g_a, g_b, bound: int, **options
) -> dict:
    """The locality radius by checking every radius in increasing order.

    `ball(g, r, **options)` builds one radius-r ball from scratch, and
    raises `budget_error` when it is too large; `ball_iso(ba, bb)`
    decides whether two built balls are isomorphic. All three come from
    the caller, so this file still imports nothing from the package. The
    first failing radius ends the search. Returns the fields of an
    `IsoRadiusResult`.
    """
    verdicts = {0: True}
    witness = [(g_a.canonical_key(g_a.root).decode(), g_b.canonical_key(g_b.root).decode())]
    k = 0
    for radius in range(1, bound + 1):
        try:
            ok, wit = ball_iso(ball(g_a, radius, **options), ball(g_b, radius, **options))
        except budget_error:
            return dict(k=k, at_least=True, verdicts=verdicts, witness=witness,
                        budget_hit=True)
        verdicts[radius] = ok
        if not ok:
            return dict(k=k, at_least=False, verdicts=verdicts, witness=witness,
                        budget_hit=False)
        k, witness = radius, wit
    return dict(k=k, at_least=True, verdicts=verdicts, witness=witness, budget_hit=False)


# ---------------------------------------------------------------------------
# Frozen values (produced by running this file; asserted in tests)
# ---------------------------------------------------------------------------

# sigma_n on Z^2 from the origin, n = 0..12.
ZD2_SIGMA = [
    1, 4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932,
]

# b_n on Z^2 with h = x, n = 0..12.
ZD2_BRIDGES_X = [
    1, 1, 3, 7, 17, 41, 101, 251, 631, 1591, 4029, 10235, 26083,
]

# sigma_n on the honeycomb lattice, n = 0..12.
HEXAGONAL_SIGMA = [
    1, 3, 6, 12, 24, 48, 90, 174, 336, 648, 1218, 2328, 4416,
]

# sigma_n on the 4.8.8 (truncated square) lattice, n = 0..12.
SQUARE_OCTAGON_SIGMA = [
    1, 3, 6, 12, 22, 42, 80, 152, 284, 536, 988, 1848, 3412,
]


def tree3_sigma(n: int) -> int:
    return 1 if n == 0 else 3 * 2 ** (n - 1)


def main():
    n_max = 12
    z2 = brute_saw_counts(zd_neighbors(2), (0, 0), n_max)
    print("ZD2_SIGMA =", z2)
    b2 = brute_bridge_counts(zd_neighbors(2), (0, 0), lambda v: v[0], n_max)
    print("ZD2_BRIDGES_X =", b2)
    hexa = brute_saw_counts(brick_wall_neighbors, (0, 0), n_max)
    print("HEXAGONAL_SIGMA =", hexa)
    tsq = brute_saw_counts(truncated_square_neighbors, (0, 0, 0), n_max)
    print("SQUARE_OCTAGON_SIGMA =", tsq)
    z1 = brute_saw_counts(zd_neighbors(1), (0,), 20)
    assert z1 == [1] + [2] * 20, z1
    b1 = brute_bridge_counts(zd_neighbors(1), (0,), lambda v: v[0], 20)
    assert b1 == [1] * 21, b1
    print("zd1 checks passed")
    assert z2 == ZD2_SIGMA, "frozen ZD2_SIGMA out of date"
    assert b2 == ZD2_BRIDGES_X, "frozen ZD2_BRIDGES_X out of date"
    assert hexa == HEXAGONAL_SIGMA, "frozen HEXAGONAL_SIGMA out of date"
    assert tsq == SQUARE_OCTAGON_SIGMA, "frozen SQUARE_OCTAGON_SIGMA out of date"
    print("all frozen tables reproduced")


if __name__ == "__main__":
    main()

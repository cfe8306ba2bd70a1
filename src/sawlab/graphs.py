"""Infinite vertex-transitive graphs behind a uniform oracle interface.

Each oracle exposes a root, deterministic labelled neighbor expansion,
orbit representatives, injective canonical keys and the name of its
default height. The catalog is one table, MODELS: each family's oracle
constructor and the parameter it takes, with its other spellings in
MODEL_ALIASES; `resolve_model` reads a model string through it for
every command. Every Z^d-periodic model of the catalog is the cover of
a PeriodicGraph (a finite voltage graph), walked by one oracle, PGOracle:
the integer lattices zd_d, the infinite dihedral line, the cylinders
Z x C_m, the ladders (infinite dihedral) x C_m, and the hexagonal and
square/octagon tilings. Their vertices are cover vertices (o, x), and a
per-model key prints each as the model's own coordinates; the model's
`pg` is the voltage graph `harmonic --model` solves. Hand-written
oracles remain for the models that are not Z^d-periodic: the 3-regular
tree, the discrete Heisenberg group, the lamplighter group and the
grandparent graph. Generic Cayley graph generation from arbitrary
presentations is deliberately absent: normal forms are curated per
model, and PeriodicGraph is the escape hatch for user-defined
Z^d-periodic graphs.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

from ._linalg import lattice_index


class GraphError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """A vertex/node budget was exhausted before the operation finished."""


class GraphOracle:
    """Interface: subclasses fix `name` and implement the four methods.

    `neighbors(v)` lists (w, label) per edge at v. The graph is
    undirected and has no loops: w lists v as often as v lists w, and no
    vertex lists itself (a compiled SAW ball counts by that, see `saw`).
    `check_vertex(v)` raises GraphError unless v is a vertex; a count
    checks its start with it, and this base class accepts any start.
    `default_height` names the height a count or a check uses when none
    is given (see `heights.resolve_height`). `cayley` states that the
    oracle is a Cayley graph: every vertex has the same labels, and the
    edge labelled l from v goes to v * l for a generator l, so whether a
    label word closes does not depend on where it starts. A SAW count
    without a compiled ball certifies its symmetries only on such an
    oracle (see `saw`).
    """

    name: str = "oracle"
    default_height: Optional[str] = None
    cayley: bool = False

    @property
    def root(self):
        raise NotImplementedError

    def neighbors(self, v) -> Tuple[Tuple[object, str], ...]:
        raise NotImplementedError

    def orbit_reps(self) -> List[object]:
        return [self.root]

    def canonical_key(self, v) -> bytes:
        return repr(v).encode()

    def check_vertex(self, v) -> None:
        """Raise GraphError, naming `v`, unless `v` is a vertex."""

    def degree_bound(self) -> int:
        return len(self.neighbors(self.root))


def _require_vertex(g: GraphOracle, v, ok: bool, form: str) -> None:
    if not ok:
        raise GraphError(f"{v!r} is not a vertex of {g.name}: a vertex is {form}")


def _ints(xs, n: int) -> bool:
    return isinstance(xs, tuple) and len(xs) == n and all(isinstance(x, int) for x in xs)


# ---------------------------------------------------------------------------
# Cayley-graph models with exact normal forms
# ---------------------------------------------------------------------------

# Tree3Oracle's letter of each base-4 digit; no word has a digit 0.
_TREE3_LETTERS = " aAb"


@dataclass(frozen=True)
class Tree3Oracle(GraphOracle):
    """3-regular tree as reduced words in the free product Z * Z/2.

    Letters: 'a' and its inverse 'A' generate the Z factor, 'b' the
    involution. A word is reduced when it has no 'aA'/'Aa'/'bb' factor.
    A vertex is its word read as an int in base 4, first letter most
    significant, with digit 1 = 'a', 2 = 'A' and 3 = 'b'; the empty word
    is 0. So the last letter is v & 3, the parent (drop it) is v >> 2 and
    the child by digit d is 4 * v + d. The canonical key is the repr of
    the word.
    """

    name = "tree3"
    default_height = "ghf"
    cayley = True

    @property
    def root(self):
        return 0

    def neighbors(self, v):
        last = v & 3
        up = v >> 2
        down = v << 2
        return (
            (up if last == 2 else down | 1, "s1"),
            (up if last == 3 else down | 3, "s2"),
            (up if last == 1 else down | 2, "t"),
        )

    def canonical_key(self, v) -> bytes:
        letters = []
        while v:
            letters.append(_TREE3_LETTERS[v & 3])
            v >>= 2
        return repr("".join(reversed(letters))).encode()

    def check_vertex(self, v) -> None:
        # The key spells a digit 0 as a space.
        word = self.canonical_key(v) if isinstance(v, int) and v >= 0 else b" "
        _require_vertex(self, v, not re.search(rb" |aA|Aa|bb", word),
                        "an int >= 0 whose base-4 digits spell a reduced word")


@dataclass(frozen=True)
class HeisenbergOracle(GraphOracle):
    """Discrete Heisenberg group in coordinates (a, b, c) with
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')."""

    name = "heisenberg"
    default_height = "ghf"
    cayley = True

    @property
    def root(self):
        return (0, 0, 0)

    def neighbors(self, v):
        a, b, c = v
        return (
            ((a + 1, b, c), "x"),
            ((a - 1, b, c), "X"),
            ((a, b + 1, c + a), "y"),
            ((a, b - 1, c - a), "Y"),
            ((a, b, c + 1), "z"),
            ((a, b, c - 1), "Z"),
        )

    def check_vertex(self, v) -> None:
        _require_vertex(self, v, _ints(v, 3), "(a, b, c), three ints")


@dataclass(frozen=True)
class LamplighterOracle(GraphOracle):
    """Lamplighter group: configurations (lit lamps, marker position).

    Generators: a toggles the lamp under the marker, t and u move the
    marker right and left. A vertex is (mask, pos): lamp p is bit 2p of
    the int mask for p >= 0 and bit -2p - 1 for p < 0, so a toggle is
    one xor. The canonical key prints the sorted list of lit lamps and
    the position, as "[-1, 2]|0".
    """

    name = "lamplighter"
    default_height = "ghf"
    cayley = True

    @property
    def root(self):
        return (0, 0)

    def neighbors(self, v):
        mask, pos = v
        lamp = 1 << (2 * pos if pos >= 0 else -2 * pos - 1)
        return (
            ((mask ^ lamp, pos), "a"),
            ((mask, pos + 1), "t"),
            ((mask, pos - 1), "u"),
        )

    def canonical_key(self, v) -> bytes:
        mask, pos = v
        lamps = []
        bit = 0
        while mask:
            if mask & 1:
                lamps.append(-(bit + 1) // 2 if bit & 1 else bit // 2)
            mask >>= 1
            bit += 1
        return f"{sorted(lamps)}|{pos}".encode()

    def check_vertex(self, v) -> None:
        _require_vertex(self, v, _ints(v, 2) and v[0] >= 0, "(mask, pos), two ints, mask >= 0")


@dataclass(frozen=True)
class GrandparentOracle(GraphOracle):
    """Degree-8 grandparent graph: a 3-regular tree with a distinguished
    end, plus an edge from each vertex to its grandparent toward the end.

    Vertices are (k, w): k indexes a fixed ray converging to the end,
    w is the descent word below ray vertex k (empty, or starting '1' so
    encodings are unique). The level of (k, w) is k - len(w).
    """

    name = "grandparent"
    default_height = "level"

    @property
    def root(self):
        return (0, "")

    @staticmethod
    def parent(v):
        k, w = v
        if not w:
            return (k + 1, "")
        return (k, w[:-1])

    @staticmethod
    def children(v):
        k, w = v
        if not w:
            return ((k - 1, ""), (k, "1"))
        return ((k, w + "0"), (k, w + "1"))

    def neighbors(self, v):
        p = self.parent(v)
        c0, c1 = self.children(v)
        gp = self.parent(p)
        g00, g01 = self.children(c0)
        g10, g11 = self.children(c1)
        return (
            (p, "parent"),
            (c0, "child0"),
            (c1, "child1"),
            (gp, "grandparent"),
            (g00, "gc00"),
            (g01, "gc01"),
            (g10, "gc10"),
            (g11, "gc11"),
        )

    def canonical_key(self, v) -> bytes:
        k, w = v
        return f"{k}:{w}".encode()

    def check_vertex(self, v) -> None:
        ok = (isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int)
              and isinstance(v[1], str) and re.fullmatch("(1[01]*)?", v[1]))
        _require_vertex(self, v, ok, "(k, w), k an int and w '' or a 0/1 word starting with 1")


# ---------------------------------------------------------------------------
# Z^d-periodic voltage graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicGraph:
    """Finite quotient multigraph with Z^d voltages.

    The covered graph has vertices (o, x), o in 1..orbit_count, x in Z^d,
    with (o1, x) ~ (o2, x + t) for each directed edge (o1, o2, t). The
    directed edge list is closed under reversal (o2, o1, -t).
    """

    orbit_count: int
    dim: int
    edges: Tuple[Tuple[int, int, Tuple[int, ...], Optional[str]], ...]
    # Orbit -> (o2, t, label) of the edges leaving it, in edge-list order.
    _out_edges: Dict[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.orbit_count < 1 or self.dim < 0:
            raise GraphError("need orbit_count >= 1 and dim >= 0")
        seen = set()
        for o1, o2, t, _label in self.edges:
            if not (1 <= o1 <= self.orbit_count and 1 <= o2 <= self.orbit_count):
                raise GraphError(f"edge orbit out of range: {(o1, o2, t)}")
            if len(t) != self.dim:
                raise GraphError("voltage length != dim")
            if o1 == o2 and all(x == 0 for x in t):
                raise GraphError("self-loop with zero voltage")
            key = (o1, o2, t)
            if key in seen:
                raise GraphError(f"repeated edge {key}")
            seen.add(key)
        for o1, o2, t, _label in self.edges:
            if (o2, o1, tuple(-x for x in t)) not in seen:
                raise GraphError(f"edge {(o1, o2, t)} missing its reversal")
        if not self._connected():
            raise GraphError("cover is not connected")
        out: Dict[int, list] = {o: [] for o in range(1, self.orbit_count + 1)}
        for o1, o2, t, label in self.edges:
            edges = out[o1]
            edges.append((o2, t, label if label is not None else f"e{len(edges)}"))
        object.__setattr__(
            self, "_out_edges", {o: tuple(edges) for o, edges in out.items()}
        )

    def _connected(self) -> bool:
        # The quotient is connected iff a spanning-tree search from orbit 1
        # reaches every orbit; the cycle voltages must also generate all of
        # Z^d: each orbit gets a potential from the tree, then every
        # non-tree edge contributes the voltage of its fundamental cycle.
        potential: Dict[int, Tuple[int, ...]] = {1: (0,) * self.dim}
        frontier = [1]
        while frontier:
            o = frontier.pop()
            for o1, o2, t, _l in self.edges:
                if o1 == o and o2 not in potential:
                    potential[o2] = tuple(p + x for p, x in zip(potential[o], t))
                    frontier.append(o2)
        if len(potential) < self.orbit_count:
            return False
        cycle_voltages = []
        for o1, o2, t, _l in self.edges:
            vec = tuple(
                potential[o1][i] + t[i] - potential[o2][i] for i in range(self.dim)
            )
            cycle_voltages.append(vec)
        return lattice_index(cycle_voltages, self.dim) == 1

    def out_edges(self, o: int) -> Tuple[Tuple[int, Tuple[int, ...], str], ...]:
        """(o2, t, label) of the edges leaving orbit o, in edge-list order;
        an unlabelled edge is named e<i>, i its position in this tuple."""
        return self._out_edges.get(o, ())

    def degree(self, o: int) -> int:
        return len(self.out_edges(o))

    def to_document(self) -> dict:
        seen = set()
        undirected = []
        for o1, o2, t, _l in self.edges:
            rev = (o2, o1, tuple(-x for x in t))
            if rev in seen:
                continue
            seen.add((o1, o2, t))
            undirected.append([o1, o2, list(t)])
        return {"orbits": self.orbit_count, "dim": self.dim, "edges": undirected}


def periodic_graph_from_document(doc: str | dict) -> PeriodicGraph:
    """Load a PeriodicGraph JSON document; reversal closure is applied.

    Each edge entry is [o1, o2, t] or [o1, o2, t, label]: integer orbits,
    a list of integer voltages and a string label. Repeated entries merge;
    a direction takes the first label an entry gives it, and one that no
    entry labels (say, the reversal of a labelled entry) is named `e<i>`.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("periodic graph document must be a JSON object")
    try:
        m, d, raw_edges = doc["orbits"], doc["dim"], doc["edges"]
    except KeyError as exc:
        raise GraphError(f"periodic graph document has no {exc} field") from exc
    if not (type(m) is int and type(d) is int and isinstance(raw_edges, (list, tuple))):
        raise GraphError("'orbits' and 'dim' must be integers and 'edges' a list")
    directed = {}
    for entry in raw_edges:
        if not (isinstance(entry, (list, tuple)) and len(entry) in (3, 4)):
            raise GraphError(f"edge entry must be [o1, o2, t] or [o1, o2, t, label]: {entry}")
        o1, o2, t, label = (*entry, None)[:4]
        if not (isinstance(t, (list, tuple)) and all(type(x) is int for x in (o1, o2, *t))
                and (label is None or isinstance(label, str))):
            raise GraphError(f"edge entry needs integer fields and a string label: {entry}")
        t = tuple(t)
        if directed.get((o1, o2, t)) is None:
            directed[o1, o2, t] = label
        directed.setdefault((o2, o1, tuple(-x for x in t)), None)
    edges = tuple((*key, label) for key, label in sorted(directed.items()))
    return PeriodicGraph(orbit_count=m, dim=d, edges=edges)


def _build_pg(m: int, d: int, labelled_edges) -> PeriodicGraph:
    edges = tuple(
        (o1, o2, tuple(t), label) for o1, o2, t, label in labelled_edges
    )
    return PeriodicGraph(orbit_count=m, dim=d, edges=edges)


def hexagonal_pg() -> PeriodicGraph:
    """Honeycomb as a 2-orbit voltage graph over Z^2, with generator labels
    forming the Cayley structure of the involution s1 and the rotation s2."""
    return _build_pg(2, 2, [
        (1, 2, (0, 0), "s1"),
        (2, 1, (0, 0), "s1"),
        (1, 2, (-1, 0), "s2"),
        (2, 1, (1, 0), "s3"),
        (1, 2, (0, -1), "s3"),
        (2, 1, (0, 1), "s2"),
    ])


def square_octagon_pg() -> PeriodicGraph:
    """Truncated square tiling: orbits E,N,W,S = 1..4 around each cell,
    a voltage-0 diamond 4-cycle plus long edges to the neighboring cells."""
    return _build_pg(4, 2, [
        (1, 2, (0, 0), "s2"),
        (2, 3, (0, 0), "s2"),
        (3, 4, (0, 0), "s2"),
        (4, 1, (0, 0), "s2"),
        (2, 1, (0, 0), "s3"),
        (3, 2, (0, 0), "s3"),
        (4, 3, (0, 0), "s3"),
        (1, 4, (0, 0), "s3"),
        (1, 3, (1, 0), "s1"),
        (3, 1, (-1, 0), "s1"),
        (2, 4, (0, 1), "s1"),
        (4, 2, (0, -1), "s1"),
    ])


def zd_pg(d: int) -> PeriodicGraph:
    """The lattice Z^d: one orbit with a loop of voltage +e_i and one of
    -e_i per axis, labelled x/X, y/Y, z/Z (g<i>/G<i> for d > 3)."""
    if d < 1:
        raise GraphError("zd requires d >= 1")
    up = "xyz" if d <= 3 else [f"g{i}" for i in range(d)]
    edges = []
    for i in range(d):
        e = tuple(int(j == i) for j in range(d))
        edges += [(1, 1, e, up[i]), (1, 1, tuple(-c for c in e), up[i].swapcase())]
    return _build_pg(1, d, edges)


def cylinder_pg(m: int) -> PeriodicGraph:
    """Z x C_m, the quotient of Z^2 by m in the second coordinate: orbit
    k+1 is cycle position k, with edges x, X along Z and y, Y around the
    cycle."""
    if m < 3:
        raise GraphError("cylinder requires m >= 3")
    edges = []
    for k in range(m):
        edges += [
            (k + 1, k + 1, (1,), "x"),
            (k + 1, k + 1, (-1,), "X"),
            (k + 1, (k + 1) % m + 1, (0,), "y"),
            (k + 1, (k - 1) % m + 1, (0,), "Y"),
        ]
    return _build_pg(m, 1, edges)


def ladder_dihedral_pg(m: int) -> PeriodicGraph:
    """Cayley graph of (infinite dihedral) x (cyclic of order m), the same
    graph as the cylinder with the product group's labels: orbit
    1 + par + 2k is line position p = 2x + par at cycle position k. The
    involutions s1, s2 pair {2x, 2x+1} and {2x-1, 2x}; a and b step
    around the cycle."""
    if m < 3:
        raise GraphError("ladder_dihedral requires m >= 3")
    edges = []
    for k in range(m):
        for par in (0, 1):
            o = 1 + par + 2 * k
            edges += [
                (o, o + 1 - 2 * par, (0,), "s1"),
                (o, o + 1 - 2 * par, (2 * par - 1,), "s2"),
                (o, 1 + par + 2 * ((k + 1) % m), (0,), "a"),
                (o, 1 + par + 2 * ((k - 1) % m), (0,), "b"),
            ]
    return _build_pg(2 * m, 1, edges)


def dihedral_line_pg() -> PeriodicGraph:
    """The line as a 2-orbit, 1-dimensional voltage graph (A-B voltage 0,
    B-A voltage 1); cover vertex (1, x) is position 2x, (2, x) is 2x+1."""
    return _build_pg(2, 1, [
        (1, 2, (0,), "s1"),
        (2, 1, (0,), "s1"),
        (2, 1, (1,), "s2"),
        (1, 2, (-1,), "s2"),
    ])


@dataclass(frozen=True)
class PGOracle(GraphOracle):
    """Cover of a PeriodicGraph: vertices (o, x) with o in 1..M, x in Z^d.

    `key` renders a vertex for `canonical_key`; a catalog model's key
    prints its vertices as its own coordinates (a lattice point, a line
    position, ...). It must be a module-level function, so that the
    oracle pickles into pool workers.
    """

    pg: PeriodicGraph
    model_name: str = "periodic"
    key: Callable[[object], str] = repr
    default_height: str = "repaired"

    @property
    def name(self) -> str:
        return self.model_name

    @property
    def root(self):
        return (1, (0,) * self.pg.dim)

    @property
    def cayley(self) -> bool:
        # One orbit: every vertex has the same labelled edges, and the
        # edge labelled l is translation by its voltage.
        return self.pg.orbit_count == 1

    def neighbors(self, v):
        o, x = v
        edges = self.pg._out_edges[o]
        out = []
        # Unpacked coordinates for the catalog's dimensions, and a plain
        # loop: this is the innermost call of every ball build.
        n = len(x)
        if n == 1:
            (a,) = x
            for o2, (s,), label in edges:
                out.append(((o2, (a + s,)), label))
        elif n == 2:
            a, b = x
            for o2, (s, t), label in edges:
                out.append(((o2, (a + s, b + t)), label))
        elif n == 3:
            a, b, c = x
            for o2, (s, t, u), label in edges:
                out.append(((o2, (a + s, b + t, c + u)), label))
        else:
            for o2, t, label in edges:
                out.append(((o2, tuple(map(add, x, t))), label))
        return tuple(out)

    def canonical_key(self, v) -> bytes:
        return self.key(v).encode()

    def check_vertex(self, v) -> None:
        m, d = self.pg.orbit_count, self.pg.dim
        ok = isinstance(v, tuple) and len(v) == 2 and v[0] in range(1, m + 1) and _ints(v[1], d)
        _require_vertex(self, v, ok, f"(o, x), o in 1..{m} and x with {d} integer coordinates")

    def orbit_reps(self):
        zero = (0,) * self.pg.dim
        return [(o, zero) for o in range(1, self.pg.orbit_count + 1)]

    def translate(self, v, t):
        o, x = v
        return (o, tuple(a + b for a, b in zip(x, t)))

    def degree_bound(self) -> int:
        return max(self.pg.degree(o) for o in range(1, self.pg.orbit_count + 1))


# ---------------------------------------------------------------------------
# Catalog and balls
# ---------------------------------------------------------------------------


def _lattice_key(v) -> str:
    """zd_d: the lattice point x."""
    return repr(v[1])


def _cylinder_key(v) -> str:
    """cylinder_m: (x, k), k the cycle position."""
    return repr((v[1][0], v[0] - 1))


def _ladder_key(v) -> str:
    """ladder_dihedral_m: (p, k), p the line position, k the cycle position."""
    k, par = divmod(v[0] - 1, 2)
    return repr((2 * v[1][0] + par, k))


def _line_key(v) -> str:
    """The dihedral line: the position p = 2x + o - 1."""
    return repr(2 * v[1][0] + v[0] - 1)


# The catalog: each family's oracle constructor, and the name of its
# parameter (d for zd, m for the quotients) or None if it takes none. A
# family with a parameter is spelled with it appended, as zd2 or
# cylinder_zd8; its constructor checks the value.
MODELS: Dict[str, Tuple[Callable[..., GraphOracle], Optional[str]]] = {
    "zd": (lambda d: PGOracle(zd_pg(d), f"zd{d}", _lattice_key, "x"), "d"),
    "dihedral": (lambda: PGOracle(dihedral_line_pg(), "dihedral", _line_key, "identity"), None),
    "tree3": (Tree3Oracle, None),
    "heisenberg": (HeisenbergOracle, None),
    "lamplighter": (LamplighterOracle, None),
    "hexagonal": (lambda: PGOracle(hexagonal_pg(), "hexagonal"), None),
    "square_octagon": (lambda: PGOracle(square_octagon_pg(), "square_octagon"), None),
    "cylinder_zd": (lambda m: PGOracle(cylinder_pg(m), f"cylinder_zd{m}", _cylinder_key, "x"), "m"),
    "ladder_dihedral": (
        lambda m: PGOracle(ladder_dihedral_pg(m), f"ladder_dihedral{m}", _ladder_key, "x"), "m"
    ),
    "grandparent": (GrandparentOracle, None),
}
# Other spellings of a family.
MODEL_ALIASES = {"cylinder": "cylinder_zd", "ladder": "ladder_dihedral", "dihedral_line": "dihedral"}

_MODEL_RE = re.compile(r"^([a-z_]+?)_?(\d+)?$")


def _parse_model(spec: str) -> Tuple[str, Optional[int]]:
    """The family (an alias replaced) and the parameter `spec` spells.
    Case, padding and an underscore before the digits are ignored; a
    family whose name ends in digits (tree3) is matched first."""
    m = _MODEL_RE.match(spec.strip().lower())
    if not m:
        raise GraphError(f"cannot parse model {spec!r}")
    base, num = m.groups()
    param = int(num) if num is not None else None
    if param is not None and f"{base}{param}" in MODELS:
        base, param = f"{base}{param}", None
    return MODEL_ALIASES.get(base, base), param


def model_name(spec: str) -> str:
    """The canonical spelling of `spec` under `resolve_model`'s rules
    (ZD_2 is zd2, dihedral_line is dihedral); a spelling they cannot
    parse, such as sl2z, is only lower-cased and stripped."""
    try:
        base, param = _parse_model(spec)
    except GraphError:
        return spec.strip().lower()
    return base if param is None else f"{base}{param}"


def resolve_model(spec: str) -> GraphOracle:
    """Build the catalog model `spec` names: a family or an alias, then
    its parameter if it takes one (zd2, cylinder8, ladder_dihedral_6),
    spelled as `_parse_model` reads it."""
    base, param = _parse_model(spec)
    if base not in MODELS:
        raise GraphError(f"unknown model {spec!r}")
    build, takes = MODELS[base]
    if takes is None:
        if param is not None:
            raise GraphError(f"model {base} takes no numeric parameter")
        return build()
    if param is None:
        raise GraphError(f"model {base} needs a numeric parameter, e.g. {base}2")
    return build(param)


DEFAULT_BALL_BUDGET = 2_000_000
BALL_CONVENTIONS = ("induced", "walk")


def _check_convention(convention: str) -> None:
    if convention not in BALL_CONVENTIONS:
        raise GraphError(
            f"unknown ball convention {convention!r}; expected one of {BALL_CONVENTIONS}"
        )


@dataclass
class Ball:
    """Rooted ball on all vertices within distance `radius` of the root.

    Vertices are sorted by (distance, canonical key); edges are index
    pairs (i, j) with i < j, each edge listed exactly once. Which edges
    are kept depends on the ball's `convention`:

    - "induced": every edge of the graph between two ball vertices;
    - "walk": the induced edges minus those whose two ends both lie at
      distance `radius`. No walk of length <= radius from the root can
      use such an edge, so this is the part of the graph those walks see.
    """

    radius: int
    vertices: List[object]
    keys: List[bytes]
    distances: List[int]
    edges: List[Tuple[int, int]]
    convention: str = "induced"

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def vertex_count(self) -> int:
        return len(self.vertices)

    def _check_restrict(self, r: int, convention: str) -> None:
        _check_convention(convention)
        if not 0 <= r <= self.radius:
            raise GraphError(f"radius {r} outside 0..{self.radius}")
        if r == self.radius and self.convention == "walk" and convention == "induced":
            raise GraphError("a walk ball lacks the induced ball's outer shell edges")

    def restrict(self, r: int, convention: str = "induced") -> "Ball":
        """The radius-`r` ball of `convention`, cut from this one.

        Vertices sort by (distance, key), so the radius-r ball's vertices
        are a prefix of these, and the result has the same vertices,
        keys, distances and sorted edges as
        `ball(g, r, convention=convention)`.
        """
        self._check_restrict(r, convention)
        if r == self.radius and convention == self.convention:
            return self
        n = bisect_right(self.distances, r)
        dist = self.distances
        shell = r if convention == "walk" else -1
        # Edges (i, j) with i < n are a prefix of the sorted list; with
        # i < j, dist[i] == r and j < n put both ends on the shell.
        edges = [
            (i, j)
            for i, j in self.edges[:bisect_left(self.edges, (n,))]
            if j < n and dist[i] != shell
        ]
        return Ball(
            radius=r,
            vertices=self.vertices[:n],
            keys=self.keys[:n],
            distances=dist[:n],
            edges=edges,
            convention=convention,
        )

    def sizes(self, convention: str = "induced") -> List[Tuple[int, int]]:
        """(vertex count, edge count) of `restrict(r, convention)` for
        r = 0..radius, in one pass over the edges."""
        self._check_restrict(self.radius, convention)
        dist = self.distances
        outer = [0] * (self.radius + 1)  # edges whose farther end is at r
        shell = [0] * (self.radius + 1)  # edges with both ends at r
        for i, j in self.edges:
            outer[dist[j]] += 1
            if dist[i] == dist[j]:
                shell[dist[j]] += 1
        walk = convention == "walk"
        out = []
        edges = 0
        for r in range(self.radius + 1):
            edges += outer[r]
            out.append((bisect_right(dist, r), edges - shell[r] if walk else edges))
        return out


class BallGrowth:
    """Layered BFS from the root of `g`, one distance layer per `grow`,
    holding at most `max_vertices` vertices.

    `ball` grows one to a fixed radius; `locality.iso_radius` grows two
    side by side and stops at the first layer where they differ in size.
    """

    def __init__(self, g: GraphOracle, max_vertices: int = DEFAULT_BALL_BUDGET):
        self.g = g
        self.max_vertices = max_vertices
        self.radius = 0
        self.layer_sizes = [1]
        self._dist = {g.root: 0}
        self._order = [g.root]
        self._frontier = [g.root]

    def grow(self) -> bool:
        """Add the vertices at distance `radius` + 1 and return True; or,
        if they would take the ball past `max_vertices`, return False
        and leave the ball as it was."""
        depth = self.radius + 1
        dist, order, cap = self._dist, self._order, self.max_vertices
        nxt = []
        for v in self._frontier:
            for w, _label in self.g.neighbors(v):
                if w not in dist:
                    dist[w] = depth
                    order.append(w)
                    nxt.append(w)
                    if len(order) > cap:
                        for u in nxt:
                            del dist[u]
                        del order[-len(nxt):]
                        return False
        self._frontier = nxt
        self.radius = depth
        self.layer_sizes.append(len(nxt))
        return True

    def ball(self) -> Ball:
        """The grown ball, of radius `radius`, with every edge between its
        vertices (`Ball.restrict` cuts the walk ball from it)."""
        g, dist = self.g, self._dist
        key_of = {v: g.canonical_key(v) for v in self._order}
        verts = sorted(self._order, key=lambda v: (dist[v], key_of[v]))
        index = {v: i for i, v in enumerate(verts)}
        edges = set()
        for i, v in enumerate(verts):
            for w, _label in g.neighbors(v):
                j = index.get(w)
                if j is not None and j != i:
                    edges.add((i, j) if i < j else (j, i))
        return Ball(
            radius=self.radius,
            vertices=verts,
            keys=[key_of[v] for v in verts],
            distances=[dist[v] for v in verts],
            edges=sorted(edges),
        )


def ball(
    g: GraphOracle,
    k: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
    convention: str = "induced",
) -> Ball:
    """BFS-complete radius-k ball around the root.

    `convention` "induced" keeps every edge between ball vertices; "walk"
    also drops the edges between two vertices at distance k (see `Ball`).
    Both give the same vertices, keys and distances. Raises
    BudgetExceeded if the ball has more than `max_vertices` vertices.
    """
    _check_convention(convention)
    if k < 0:
        raise GraphError("radius must be >= 0")
    growth = BallGrowth(g, max_vertices)
    while growth.radius < k:
        if not growth.grow():
            raise BudgetExceeded(f"ball({g.name}, {k}) exceeds {max_vertices} vertices")
    return growth.ball().restrict(k, convention)

"""Exact enumeration of self-avoiding walks and bridges.

Counts are exact big integers obtained by depth-first backtracking.
Enumeration is iterative-deepening per depth: pass k walks the tree to
depth k and finalizes sigma_k (or b_k), so a resource budget always
yields a table whose entries up to the high-water mark are exact and
final. The node budget is enforced between passes with a conservative
projection, which keeps partial results identical for any thread count.

Two walkers share one contract: extend a given path by a fixed number of
steps and return the walks found and the nodes entered. Every walk of
length <= n from the start lies in the radius-n ball, so each count first
compiles that ball once (`_compile_ball`): BFS ids, integer adjacency
rows in the oracle's neighbor order, and one height per id.
`_walk_ball` then runs the DFS over ints with a bytearray visited mask.
A ball with more than MAX_BALL_VERTICES inner vertices is not compiled,
nor one whose heights raise; such a count runs `_walk`, the same DFS
over the oracle's vertex objects, so its counts and errors are what they
would be without a ball. A `step` height that gives an inner vertex of
the ball two heights is not well defined, and the count raises
HeightError, as `heights.height_table` does. A ball over the cap is not
checked: `_walk` transports the height along each walk as it goes, and
its counts depend on the path if the height is ill defined. With more
than one thread, the walker lists the feasible prefixes of length
SPLIT_DEPTH once per count, and every deeper pass extends them in a
process pool. The pool's initializer gives each worker the walker state once (the
compiled ball, or the oracle and height), so a task is only a prefix,
the steps left and the prefix's heights; each worker gets one chunk of
tasks per pass.

Bridges follow the height inequalities h(start) < h(pi_i) <= h(pi_n):
every vertex after the start is strictly higher than the start, and the
walk ends at a running maximum. A bridge count is a SAW count with this
filter; the compiled ball of a bridge count keeps only the edges into
vertices above the start. Heights are evaluated directly (`at`) when the
height function gives a value at the start, and otherwise transported
along edge labels (`step`); this is decided once per count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ._linalg import nth_root_decimal, root_compare
from .graphs import GraphOracle
from .heights import HeightError, HeightFunction

DEFAULT_NODE_BUDGET = 50_000_000


def default_budget() -> int:
    env = os.environ.get("SAWLAB_BUDGET")
    if env:
        value = int(env)
        if value < 1:
            raise ValueError("SAWLAB_BUDGET must be positive")
        return value
    return DEFAULT_NODE_BUDGET


@dataclass
class CountTable:
    """Exact per-length walk counts from a fixed start vertex."""

    kind: str  # "saw" | "bridge"
    model: str
    n_max: int
    counts: Dict[int, int]
    height_name: Optional[str] = None
    partial: bool = False
    high_water: int = 0  # largest n whose count is exact and final
    nodes_used: int = 0

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def series(self) -> List[int]:
        return [self.counts[n] for n in range(self.high_water + 1)]

    def column_name(self) -> str:
        return "sigma_n" if self.kind == "saw" else "b_n"

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "model": self.model,
            "n_max": self.n_max,
            "high_water": self.high_water,
            "partial": self.partial,
            "counts": {str(n): self.counts[n] for n in sorted(self.counts)},
        }
        if self.height_name is not None:
            doc["height"] = self.height_name
        return doc

    def to_csv(self) -> str:
        lines = [f"n,{self.column_name()}"]
        for n in range(1, self.high_water + 1):
            lines.append(f"{n},{self.counts[n]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The walkers
# ---------------------------------------------------------------------------

# Depth of the prefixes whose subtrees are fanned out to the process pool.
SPLIT_DEPTH = 3


def _walk(
    g: GraphOracle,
    h: Optional[HeightFunction],
    path: Sequence,
    remaining: int,
    hv: int = 0,
    hmax: int = 0,
    out: Optional[list] = None,
) -> Tuple[int, int]:
    """Extend the self-avoiding `path` by exactly `remaining` >= 1 steps.

    Returns (walks found, nodes entered below `path`). With `h` None the
    walks are SAWs. Otherwise a step must end strictly above the start,
    and a walk counts only if it ends at its running maximum; `hv` and
    `hmax` are the height of the end of `path` and the running maximum,
    both relative to the start. If `out` is given, every feasible
    extension is appended to it as (path, hv, hmax), whether or not it
    ends at its maximum.
    """
    neighbors = g.neighbors
    visited = dict.fromkeys(path)  # insertion-ordered: the keys are the path
    bridge = h is not None
    at = step = None
    h0 = 0
    if bridge:
        h0 = h.at(path[0])
        if h0 is None:
            h0, step = 0, h.step
        else:
            at = h.at
    hits = nodes = 0

    def extend(v, hv, hmax, remaining):
        nonlocal hits, nodes
        last = remaining == 1
        hw = top = 0
        for w, label in neighbors(v):
            if w in visited:
                continue
            if bridge:
                hw = step(hv, label) if at is None else at(w) - h0
                if hw <= 0:
                    continue
                top = hw if hw > hmax else hmax
            nodes += 1
            if not last:
                visited[w] = None
                extend(w, hw, top, remaining - 1)
                del visited[w]
            else:
                if hw == top:
                    hits += 1
                if out is not None:
                    out.append((tuple(visited) + (w,), hw, top))

    extend(path[-1], hv, hmax, remaining)
    return hits, nodes


# Most inner vertices (those with an adjacency row) a compiled ball may
# have; a count whose ball would have more walks the oracle with `_walk`.
# The cap bounds the memory a ball adds to the process (about 0.5 MB at
# this size) and the work a build wastes before it gives up.
MAX_BALL_VERTICES = 3000


class _CompiledBall(NamedTuple):
    """What the walks of length <= n from a start can see, over ints.

    The start is id 0. Inner vertices, those at distance <= n - 1, have
    ids 0 .. len(rows) - 1 in BFS order, and `rows[i]` lists the ids a
    walk may step to from i, in the oracle's neighbor order and with its
    multiplicity. An edge into a vertex at distance n goes to a leaf id
    after those, without a row. A walk of length <= n enters such a
    vertex only at its last step, which the kernel counts without marking
    it visited, so leaves need not be told apart: there is one leaf id
    per leaf height. `heights[i]` is the height of id i relative to the
    start; all 0 for SAWs. For bridges only the edges into vertices
    strictly above the start are kept, and distance is measured along
    them.
    """

    rows: List[List[int]]
    heights: List[int]


def _compile_ball(
    g: GraphOracle, h: Optional[HeightFunction], start, n: int
) -> Optional[_CompiledBall]:
    """The radius-`n` ball around `start` for `_walk_ball`, or None.

    None means the count walks the oracle with `_walk` instead: the ball
    has more than MAX_BALL_VERTICES inner vertices, or the oracle or the
    height raised, and `_walk` surfaces the same error where it meets
    it. Raises HeightError if `h.step` transport gives an inner vertex
    two heights (checked on the edges the ball keeps).
    """
    conflict = None
    try:
        at = step = None
        h0 = 0
        if h is not None:
            h0 = h.at(start)
            if h0 is None:
                h0, step = 0, h.step
            else:
                at = h.at
        ids = {start: 0}
        leaves: Dict[int, int] = {}  # leaf id per height
        heights = [0]
        rows: List[List[int]] = []
        frontier = [start]
        for depth in range(1, n + 1):
            nxt = []
            for v in frontier:
                hv = heights[len(rows)]
                row = []
                for w, label in g.neighbors(v):
                    hw = 0
                    if h is not None:
                        hw = step(hv, label) if at is None else at(w) - h0
                        if hw <= 0:
                            continue
                    i = ids.get(w)
                    if i is None:
                        if depth < n:
                            i = ids[w] = len(heights)
                            if i >= MAX_BALL_VERTICES:
                                return None
                            nxt.append(w)
                            heights.append(hw)
                        else:
                            i = leaves.get(hw)
                            if i is None:
                                i = leaves[hw] = len(heights)
                                heights.append(hw)
                    elif heights[i] != hw:
                        conflict = HeightError(
                            f"height transport conflict at {w!r}: {heights[i]} vs {hw}"
                        )
                        raise conflict
                    row.append(i)
                rows.append(row)
            frontier = nxt
    except Exception as exc:
        # Any other error goes to the fallback, which reproduces it where
        # the walker itself meets it.
        if exc is conflict:
            raise
        return None
    return _CompiledBall(rows, heights)


def _walk_ball(
    ball: _CompiledBall,
    path: Sequence[int],
    remaining: int,
    hmax: int = 0,
    out: Optional[list] = None,
) -> Tuple[int, int]:
    """`_walk` over a compiled ball of radius n: extend the path of ids
    `path` by exactly `remaining` >= 1 steps, with len(path) - 1 +
    remaining <= n, and return (walks found, nodes entered). The ball
    holds the heights and only the edges a bridge may take, so the one
    check left is that a walk ends at its running maximum `hmax` (always
    true for SAWs). `out` collects (path, height, running maximum) as in
    `_walk`.
    """
    rows, heights = ball.rows, ball.heights
    visited = bytearray(len(heights))
    for i in path:
        visited[i] = 1
    trail = list(path)
    hits = nodes = 0

    def extend(v, hmax, remaining):
        nonlocal hits, nodes
        if remaining == 1:
            for w in rows[v]:
                if not visited[w]:
                    nodes += 1
                    hw = heights[w]
                    if hw >= hmax:
                        hits += 1
                    if out is not None:
                        out.append((tuple(trail) + (w,), hw, hw if hw > hmax else hmax))
            return
        remaining -= 1
        for w in rows[v]:
            if not visited[w]:
                nodes += 1
                hw = heights[w]
                visited[w] = 1
                if out is not None:
                    trail.append(w)
                extend(w, hw if hw > hmax else hmax, remaining)
                if out is not None:
                    trail.pop()
                visited[w] = 0

    extend(path[-1], hmax, remaining)
    return hits, nodes


# The walker state of a count: a _CompiledBall, or (g, h) for `_walk`.
_WalkerState = Union[_CompiledBall, Tuple[GraphOracle, Optional[HeightFunction]]]


def _extend(
    state: _WalkerState,
    path: Sequence,
    remaining: int,
    hv: int = 0,
    hmax: int = 0,
    out: Optional[list] = None,
) -> Tuple[int, int]:
    """Extend `path` with the walker `state` selects (see `_walk`)."""
    if isinstance(state, _CompiledBall):
        return _walk_ball(state, path, remaining, hmax, out)
    g, h = state
    return _walk(g, h, path, remaining, hv, hmax, out)


# Set once in each pool worker by `_init_worker`, the pool's initializer,
# so that tasks carry only (prefix, rest, hv, hmax).
_worker_state: Optional[_WalkerState] = None


def _init_worker(state: _WalkerState) -> None:
    global _worker_state
    _worker_state = state


def _walk_task(task) -> Tuple[int, int]:
    return _extend(_worker_state, *task)


# ---------------------------------------------------------------------------
# Public counting API
# ---------------------------------------------------------------------------


def _run_iterative(
    g: GraphOracle,
    n_max: int,
    start,
    threads: int,
    budget: Optional[int],
    h: Optional[HeightFunction],
) -> CountTable:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if budget is None:
        budget = default_budget()
    if start is None:
        start = g.root
    counts: Dict[int, int] = {0: 1}
    nodes_used = 1
    high_water = 0
    partial = False
    last_pass_nodes = 1
    # A depth-(k+1) pass expands at most (1 + degree_bound) times the
    # nodes of the depth-k pass, so this projection never overshoots.
    factor = 1 + g.degree_bound()
    ball = _compile_ball(g, h, start, n_max)
    state: _WalkerState = (g, h) if ball is None else ball
    root = (start,) if ball is None else (0,)
    prefixes: Optional[list] = None

    pool = None
    try:
        if threads > 1:
            pool = ProcessPoolExecutor(
                max_workers=threads, initializer=_init_worker, initargs=(state,)
            )
        for depth in range(1, n_max + 1):
            projected = last_pass_nodes * factor
            if nodes_used + projected > budget:
                partial = True
                break
            if pool is not None and depth > SPLIT_DEPTH:
                if prefixes is None:
                    prefixes = []
                    _, prefix_nodes = _extend(state, root, SPLIT_DEPTH, out=prefixes)
                    prefix_nodes += 1
                rest = depth - SPLIT_DEPTH
                tasks = [(p, rest, hv, hm) for p, hv, hm in prefixes]
                # One chunk per worker.
                chunksize = max(1, -(-len(tasks) // threads))
                results = list(pool.map(_walk_task, tasks, chunksize=chunksize))
                hits = sum(r[0] for r in results)
                pass_nodes = prefix_nodes + sum(r[1] for r in results)
            else:
                hits, pass_nodes = _extend(state, root, depth)
                pass_nodes += 1
            counts[depth] = hits
            nodes_used += pass_nodes
            last_pass_nodes = pass_nodes
            high_water = depth
    finally:
        if pool is not None:
            pool.shutdown()

    return CountTable(
        kind="saw" if h is None else "bridge",
        model=g.name,
        n_max=n_max,
        counts=counts,
        height_name=h.name if h is not None else None,
        partial=partial,
        high_water=high_water,
        nodes_used=nodes_used,
    )


def count_saws(
    g: GraphOracle,
    n_max: int,
    threads: int = 1,
    budget: Optional[int] = None,
    start=None,
) -> CountTable:
    """Exact sigma_n for 0 <= n <= n_max from the root (or `start`)."""
    return _run_iterative(g, n_max, start, threads, budget, None)


def count_bridges(
    g: GraphOracle,
    h: HeightFunction,
    n_max: int,
    threads: int = 1,
    budget: Optional[int] = None,
    start=None,
) -> CountTable:
    """Exact b_n for 0 <= n <= n_max from the root (or `start`)."""
    return _run_iterative(g, n_max, start, threads, budget, h)


# ---------------------------------------------------------------------------
# Multiplicativity and connective-constant bounds
# ---------------------------------------------------------------------------


@dataclass
class MultiplicativityReport:
    kind: str
    pairs_checked: int
    violations: List[Tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_multiplicativity(table: CountTable, kind: Optional[str] = None) -> MultiplicativityReport:
    """sigma_{m+n} <= sigma_m sigma_n for SAW tables, b_{m+n} >= b_m b_n
    for bridge tables, over all m, n >= 1 with m + n <= high_water."""
    if kind is None:
        kind = table.kind
    violations: List[Tuple[int, int]] = []
    checked = 0
    top = table.high_water
    for m in range(1, top):
        for n in range(m, top - m + 1):
            checked += 1
            lhs = table.counts[m + n]
            rhs = table.counts[m] * table.counts[n]
            bad = lhs > rhs if kind == "saw" else lhs < rhs
            if bad:
                violations.append((m, n))
    return MultiplicativityReport(kind=kind, pairs_checked=checked, violations=violations)


@dataclass
class BoundsRow:
    n: int
    sigma_n: Optional[int]
    b_n: Optional[int]
    lower_root: Optional[str]  # b_n^{1/n}, rounded down
    upper_root: Optional[str]  # sigma_n^{1/n}, rounded up


@dataclass
class BoundsReport:
    model: str
    height_name: Optional[str]
    precision: int
    rows: List[BoundsRow]
    best_lower: Optional[str]
    best_lower_n: Optional[int]
    best_upper: Optional[str]
    best_upper_n: Optional[int]

    def gap(self) -> Optional[Fraction]:
        if self.best_lower is None or self.best_upper is None:
            return None
        return Fraction(self.best_upper) - Fraction(self.best_lower)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "height": self.height_name,
            "precision": self.precision,
            "rows": [
                {
                    "n": r.n,
                    "sigma_n": r.sigma_n,
                    "b_n": r.b_n,
                    "lower_root": r.lower_root,
                    "upper_root": r.upper_root,
                }
                for r in self.rows
            ],
            "best_lower": self.best_lower,
            "best_lower_n": self.best_lower_n,
            "best_upper": self.best_upper,
            "best_upper_n": self.best_upper_n,
        }

    def to_csv(self) -> str:
        lines = ["n,sigma_n,b_n,lower_root,upper_root"]
        for r in self.rows:
            cells = [
                str(r.n),
                "" if r.sigma_n is None else str(r.sigma_n),
                "" if r.b_n is None else str(r.b_n),
                r.lower_root or "",
                r.upper_root or "",
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def doubling_indices(n_max: int) -> List[int]:
    out = []
    n = 1
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


def mu_bounds(
    sigma_table: Optional[CountTable],
    bridge_table: Optional[CountTable],
    precision: int = 10,
) -> BoundsReport:
    """Per-n root bounds and the best ones.

    Upper bounds sigma_n^{1/n} are valid for every n (submultiplicative
    sequence); the best is the exact minimum. Lower bounds b_n^{1/n} are
    guaranteed monotone only along the doubling subsequence 1, 2, 4, ...
    (supermultiplicativity), so the best lower bound is the exact maximum
    over that subsequence. Roots are rendered from exact integers, lower
    bounds rounded down and upper bounds rounded up; best selection uses
    exact cross-power comparison, never the decimal renderings.
    """
    if sigma_table is None and bridge_table is None:
        raise ValueError("at least one table is required")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    s_top = sigma_table.high_water if sigma_table else 0
    b_top = bridge_table.high_water if bridge_table else 0
    n_top = max(s_top, b_top)
    rows: List[BoundsRow] = []
    for n in range(1, n_top + 1):
        s = sigma_table.counts.get(n) if sigma_table else None
        b = bridge_table.counts.get(n) if bridge_table else None
        rows.append(
            BoundsRow(
                n=n,
                sigma_n=s,
                b_n=b,
                lower_root=(
                    nth_root_decimal(b, n, precision, round_up=False)
                    if b is not None
                    else None
                ),
                upper_root=(
                    nth_root_decimal(s, n, precision, round_up=True)
                    if s is not None
                    else None
                ),
            )
        )

    best_upper = best_upper_n = None
    if sigma_table and s_top >= 1:
        arg = 1
        for n in range(2, s_top + 1):
            if root_compare(
                sigma_table.counts[n], n, sigma_table.counts[arg], arg
            ) < 0:
                arg = n
        best_upper_n = arg
        best_upper = nth_root_decimal(
            sigma_table.counts[arg], arg, precision, round_up=True
        )

    best_lower = best_lower_n = None
    if bridge_table and b_top >= 1:
        candidates = [n for n in doubling_indices(b_top)]
        arg = candidates[0]
        for n in candidates[1:]:
            if root_compare(
                bridge_table.counts[n], n, bridge_table.counts[arg], arg
            ) > 0:
                arg = n
        best_lower_n = arg
        best_lower = nth_root_decimal(
            bridge_table.counts[arg], arg, precision, round_up=False
        )

    return BoundsReport(
        model=(sigma_table or bridge_table).model,
        height_name=bridge_table.height_name if bridge_table else None,
        precision=precision,
        rows=rows,
        best_lower=best_lower,
        best_lower_n=best_lower_n,
        best_upper=best_upper,
        best_upper_n=best_upper_n,
    )


def doubling_monotone(bridge_table: CountTable) -> List[Tuple[int, int]]:
    """Pairs (n, 2n) violating b_{2n}^{1/2n} >= b_n^{1/n}; must be empty."""
    bad = []
    top = bridge_table.high_water
    for n in range(1, top // 2 + 1):
        if root_compare(
            bridge_table.counts[2 * n], 2 * n, bridge_table.counts[n], n
        ) < 0:
            bad.append((n, 2 * n))
    return bad


def table_to_json(table: CountTable, timestamp: Optional[str] = None) -> str:
    doc = table.to_json_dict()
    if timestamp is not None:
        doc["generated_at"] = timestamp
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bounds_to_json(report: BoundsReport, timestamp: Optional[str] = None) -> str:
    doc = report.to_json_dict()
    if timestamp is not None:
        doc["generated_at"] = timestamp
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

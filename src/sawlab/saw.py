"""Exact enumeration of self-avoiding walks and bridges.

Counts are exact big integers obtained by depth-first backtracking. One
DFS to depth D tallies, for every depth k <= D, the nodes N_k it enters
and the hits among them (walks of length k that count), so one pass
yields sigma_k (or b_k) for every k <= D. The node budget is accounted as
iterative deepening would spend it, one pass per depth: pass k enters
P_k = 1 + N_1 + ... + N_k nodes, and the schedule stops before depth k
when the nodes used so far plus (1 + degree bound) * P_(k-1) exceed the
budget. `_run_iterative` replays that schedule from the tallies, so
`nodes_used`, `high_water` and `partial` are the same as if the passes
had run, and a budget always yields a table whose entries up to the
high-water mark are exact and final, identical for any thread count.
The real passes stay within the budget: a pass to depth D runs only if
the schedule's own projection, (1 + degree bound) times more nodes per
depth, fits up to D. It then enters P_D nodes, no more than the
schedule's passes to the depths it covers.

Two walkers share one contract: extend a given path by up to a number of
steps and return the per-depth tallies. Every walk of length <= n from
the start lies in the radius-n ball, so each count first compiles that
ball once (`_compile_ball`) from one `heights.transport` BFS: ids,
integer adjacency rows in the oracle's neighbor order, and one height per
id. `_walk_ball` then runs the DFS over ints with a bytearray visited
mask. Errors of the oracle or the height propagate from the build, and a
height that the BFS gives two values at one vertex is not well defined:
the count raises HeightConflict, as `heights.height_table` does. A ball
with more than MAX_BALL_VERTICES inner vertices is not compiled; such a
count runs `_walk`, the same DFS over the oracle's vertex objects, which
carries the height along each walk unchecked. With more than one thread,
a real pass lists the feasible prefixes of length SPLIT_DEPTH and extends
them, in a process pool if the pass is big enough to pay for starting one
(POOL_MIN_NODES, decided from exact node bounds, never from a clock) and
otherwise in this process. The pool's initializer gives each worker the
walker state once (the compiled ball, or the oracle and height), so a
task is only a prefix, the steps left and the prefix's heights; each
worker gets one chunk of tasks per real pass.

Bridges follow the height inequalities h(start) < h(pi_i) <= h(pi_n):
every vertex after the start is strictly higher than the start, and the
walk ends at a running maximum. A bridge count is a SAW count with this
filter; the compiled ball of a bridge count keeps only the edges into
vertices above the start. Both walkers carry heights across edges with
`HeightFunction.across`, relative to the start.
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
from .heights import HeightFunction, transport

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
) -> Tuple[List[int], List[int]]:
    """Extend the self-avoiding `path` by up to `remaining` >= 1 steps.

    Returns the per-depth tallies (hits, nodes): `nodes[j]` is the number
    of nodes entered j steps below `path`, and `hits[j]` the number of
    those that end a counted walk (index 0 is 0). With `h` None the walks
    are SAWs and every node is a hit. Otherwise a step must end strictly
    above the start, and a walk counts only if it ends at its running
    maximum; `hv` and `hmax` are the height of the end of `path` and the
    running maximum, both relative to the start. If `out` is given, every
    feasible extension by exactly `remaining` steps is appended to it as
    (path, height of its end, running maximum before its last step),
    whether or not it ends at its maximum. Heights are carried across
    each step by `h.across`, from `h.origin` at the start.
    """
    neighbors = g.neighbors
    visited = dict.fromkeys(path)  # insertion-ordered: the keys are the path
    bridge = h is not None
    h0 = 0
    if bridge:
        across = h.across
        h0 = h.origin(path[0])
    hits = [0] * (remaining + 1)
    nodes = [0] * (remaining + 1)

    # Heights inside are absolute: relative ones plus h0.
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
    """The radius-`n` ball around `start` for `_walk_ball`, or None if it
    has more than MAX_BALL_VERTICES inner vertices.

    One `heights.transport` BFS gives the ids, rows and heights, so an
    error of the oracle or the height propagates, and HeightConflict is
    raised if an edge the ball keeps gives an inner vertex two heights.
    """
    ids: Dict[object, int] = {}
    carried: List[int] = []
    rows: List[List[int]] = []
    leaves: Dict[int, int] = {}  # leaf id per height
    for depth, row in transport(g, h, start, n, ids, carried, above=h is not None):
        inner = len(ids)
        if depth < n - 1:
            if inner > MAX_BALL_VERTICES:
                return None
        else:
            # Ids from `inner` on are edges into distance n: leaves.
            for k, i in enumerate(row):
                if i >= inner:
                    row[k] = leaves.setdefault(carried[i] - carried[0], inner + len(leaves))
        rows.append(row)
    heights = [hv - carried[0] for hv in carried[:len(ids)]] + list(leaves)
    return _CompiledBall(rows, heights)


def _walk_ball(
    ball: _CompiledBall,
    path: Sequence[int],
    remaining: int,
    hmax: int = 0,
    out: Optional[list] = None,
) -> Tuple[List[int], List[int]]:
    """`_walk` over a compiled ball of radius n: extend the path of ids
    `path` by up to `remaining` >= 1 steps, with len(path) - 1 +
    remaining <= n, and return the per-depth tallies (hits, nodes). The
    ball holds the heights and only the edges a bridge may take, so the
    one check left is that a walk ends at its running maximum `hmax`
    (always true for SAWs). `out` collects (path, height, running
    maximum before the last step) at depth `remaining` as in `_walk`.
    """
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


# The walker state of a count: a _CompiledBall, or (g, h) for `_walk`.
_WalkerState = Union[_CompiledBall, Tuple[GraphOracle, Optional[HeightFunction]]]


def _extend(
    state: _WalkerState,
    path: Sequence,
    remaining: int,
    hv: int = 0,
    hmax: int = 0,
    out: Optional[list] = None,
) -> Tuple[List[int], List[int]]:
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


def _walk_task(task) -> Tuple[List[int], List[int]]:
    return _extend(_worker_state, *task)


# ---------------------------------------------------------------------------
# Public counting API
# ---------------------------------------------------------------------------

# A pass with more than one thread runs in the process pool only if it is
# big enough to pay for starting the pool: the bound on the nodes at its
# deepest depth, weighted by the cost of a node, must be at least
# POOL_MIN_NODES. A node of the oracle walker `_walk` costs about
# ORACLE_NODE_COST nodes of the compiled-ball walker. Measured on a
# 2-vCPU machine, a pool start costs about as much wall time as 100,000
# compiled-ball nodes; both numbers are exact integers, so the choice is
# the same on every run.
POOL_MIN_NODES = 100_000
ORACLE_NODE_COST = 4


def _plan_depth(depth: int, n_max: int, nodes_used: int, last: int, factor: int,
                budget: int) -> int:
    """The deepest real pass the budget allows, at most `n_max`.

    `depth` is the first depth without a tally, and `nodes_used` and
    `last` are the replayed schedule before it, whose budget check for
    `depth` passed. Each further depth is projected to cost `factor`
    times the one before, as the schedule's own check assumes, and the
    pass stops at the last depth whose projected check still passes.
    Real passes grow by at most `factor` per depth, so the replay gets
    through every depth planned here.
    """
    pass_nodes = last * factor
    nodes_used += pass_nodes
    while depth < n_max:
        pass_nodes *= factor
        if nodes_used + pass_nodes > budget:
            break
        nodes_used += pass_nodes
        depth += 1
    return depth


def _real_pass(state: _WalkerState, root: tuple, target: int, threads: int, degree: int,
               pools: list) -> Tuple[List[int], List[int]]:
    """Tally hits and nodes at every depth up to `target` in one DFS.

    With more than one thread the prefixes of length SPLIT_DEPTH are
    listed first. A self-avoiding walk has at most `degree` - 1 ways to
    go on, so the prefix tally bounds the nodes at depth `target`; if
    that bound is large enough (POOL_MIN_NODES), the prefixes are
    extended in a process pool, started on first use and kept in
    `pools`, and otherwise here. Either way the pass enters the same
    nodes, so the tallies are the same for any thread count.
    """
    if threads == 1 or target <= SPLIT_DEPTH:
        return _extend(state, root, target)
    prefixes: list = []
    hits, nodes = _extend(state, root, SPLIT_DEPTH, out=prefixes)
    rest = target - SPLIT_DEPTH
    tasks = [(p, rest, hv, max(hv, hm)) for p, hv, hm in prefixes]
    size = nodes[SPLIT_DEPTH] * (degree - 1) ** rest
    if not isinstance(state, _CompiledBall):
        size *= ORACLE_NODE_COST
    if size < POOL_MIN_NODES:
        results = [_extend(state, *task) for task in tasks]
    else:
        if not pools:
            pools.append(ProcessPoolExecutor(
                max_workers=threads, initializer=_init_worker, initargs=(state,)))
        # One chunk per worker.
        chunksize = max(1, -(-len(tasks) // threads))
        results = pools[0].map(_walk_task, tasks, chunksize=chunksize)
    hits += [0] * rest
    nodes += [0] * rest
    for task_hits, task_nodes in results:
        for j in range(1, rest + 1):
            hits[SPLIT_DEPTH + j] += task_hits[j]
            nodes[SPLIT_DEPTH + j] += task_nodes[j]
    return hits, nodes


def _run_iterative(
    g: GraphOracle,
    n_max: int,
    start,
    threads: int,
    budget: Optional[int],
    h: Optional[HeightFunction],
) -> CountTable:
    """Count to `n_max` with the budget schedule of iterative deepening,
    replayed from the tallies of as few real passes as the budget allows
    (see the module docstring)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if budget is None:
        budget = default_budget()
    if start is None:
        start = g.root
    # A depth-(k+1) pass expands at most (1 + degree_bound) times the
    # nodes of the depth-k pass, so this projection never overshoots.
    degree = g.degree_bound()
    factor = 1 + degree
    ball = _compile_ball(g, h, start, n_max)
    state: _WalkerState = (g, h) if ball is None else ball
    root = (start,) if ball is None else (0,)
    counts: Dict[int, int] = {0: 1}
    hits: List[int] = []  # the last real pass's tallies, to depth `tallied`
    nodes: List[int] = []
    tallied = 0
    nodes_used = last_pass_nodes = 1  # the replayed schedule; P_0 = 1
    high_water = 0
    partial = False
    pools: list = []
    try:
        for depth in range(1, n_max + 1):
            if nodes_used + last_pass_nodes * factor > budget:
                partial = True
                break
            if depth > tallied:
                tallied = _plan_depth(depth, n_max, nodes_used, last_pass_nodes, factor, budget)
                hits, nodes = _real_pass(state, root, tallied, threads, degree, pools)
            counts[depth] = hits[depth]
            last_pass_nodes += nodes[depth]
            nodes_used += last_pass_nodes
            high_water = depth
    finally:
        for pool in pools:
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


def render_json(doc: dict, timestamp: Optional[str] = None) -> str:
    """The bytes of a JSON artifact: `doc` with sorted keys, indent 2 and
    a trailing newline, plus `generated_at` when a timestamp is given."""
    if timestamp is not None:
        doc = {**doc, "generated_at": timestamp}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def table_to_json(table: CountTable, timestamp: Optional[str] = None) -> str:
    return render_json(table.to_json_dict(), timestamp)

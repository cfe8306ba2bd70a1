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
integer adjacency rows in the oracle's neighbor order, the edge labels of
each row, and one height per id. `_walk_ball` then runs the DFS over ints
with a bytearray visited mask. Neither walker enters the last level of
its DFS, the widest: a SAW count on a compiled ball keeps, per id, the
number of row entries of the path's ids equal to it, so the walks one
step below a vertex are its row length minus that number; a bridge
count, and every count on the oracle, scans each child's neighbors in
its parent's loop. Errors of the oracle or the height
propagate from the build, and a height that the BFS gives two values at
one vertex is not well defined: the count raises HeightConflict, as
`heights.verify` does. A ball with more than MAX_BALL_VERTICES
inner vertices is not compiled; such a count runs `_walk`, the same DFS
over the oracle's vertex objects, which carries the height along each
walk unchecked, unless it counts words (below). With more than one
thread, or with candidate symmetries (below), a real pass lists the
feasible prefixes of length SPLIT_DEPTH and extends them, in a process
pool if the pass is big enough to pay for starting one (POOL_MIN_NODES,
decided from exact node bounds, never from a clock) and otherwise in
this process. The pool class, and with it `multiprocessing`, is loaded
at the first pass that fans out, so a run that starts no pool never
imports them. The pool has one worker per thread, at most one per CPU:
the tables are the same at any thread count. Its initializer gives each
worker the walker state once (the compiled ball, or the oracle and
height), so a task is only a prefix, the steps left and the prefix's
heights; workers take the tasks in chunks of len(tasks) // (4 *
workers), at least one.

Symmetry: an automorphism of the compiled ball that fixes the start (and,
for bridges, every height) maps the walks that extend a prefix
bijectively onto the walks that extend its image. So the first pass of a
count that lists the prefixes also merges them into orbits
(`_prefix_orbits`), and later passes reuse them. Each candidate label
permutation (`_label_moves`) that maps the label words of the listed
prefixes onto listed prefixes and would merge two orbits is certified
by a BFS over the ball the count walks (`_certify`); only then are the
orbits merged, by union-find. A SAW count that walks the oracle, for
want of a compiled ball, certifies on the ball of radius
max(n // 2, SPLIT_DEPTH) + 1 instead (`_cayley_ball`), but only if the
oracle states that it is a Cayley graph (`GraphOracle.cayley`: tree3,
heisenberg, lamplighter and every one-orbit cover, such as zd_d): there
whether a label word closes does not depend on where it starts, and
that ball holds every closed walk of length <= n from the start. No
symmetry is assumed from a model's name. A pass extends one prefix per
orbit and counts its tallies once for every prefix of the orbit, at any
thread count. The tallies, and so the counts, `nodes_used`, `high_water`
and `partial`, are those of the full DFS; `nodes_used` still counts
every node of the unreduced schedule. Of the catalog, zd_d, heisenberg,
hexagonal, square_octagon, the cylinders, the ladders and the dihedral
line are reduced, though not every bridge count is (hexagonal's repaired
height keeps no certified symmetry). The grandparent graph has no label
permutation that is an automorphism, so each of its prefixes is an orbit
of its own. The SAW counts of lamplighter, heisenberg and zd3 are
reduced on the oracle through n = 23, 17 and 25, where their
certification balls still fit MAX_BALL_VERTICES (their own balls fit
through n = 12, 9 and 13). Bridge counts past their own balls walk the
oracle unreduced, unless they count words.

Words: on a Cayley oracle, a SAW count, or a bridge count under a word
sum (`GammaHeight`), that cannot compile its own ball is first tried a
third way, with no walk at all (`_word_tallies`, with its proof). A walk
is self-avoiding iff no factor of its label word closes, and the closed
words of length <= n are read from the same half-radius ball, so the
walks are the paths of an Aho-Corasick automaton of those words that
avoid its dead states, counted by one DP over (state, height, running
maximum). It yields the tallies of one pass to n_max, from which the
schedule is replayed as always, and starts no pool. It gives up, for
the routes above, once the automaton passes MAX_BALL_VERTICES states:
tree3 and lamplighter count words through n = 19 (lamplighter's
automaton has 671 states at n = 16 and 7,937 at n = 20); heisenberg and
zd_d give up.

Bridges follow the height inequalities h(start) < h(pi_i) <= h(pi_n):
every vertex after the start is strictly higher than the start, and the
walk ends at a running maximum. A bridge count is a SAW count with this
filter; the compiled ball of a bridge count keeps only the edges into
vertices above the start. Both walkers carry heights across edges with
`HeightFunction.across`, relative to the start.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ._linalg import nth_root_decimal, root_compare
from .graphs import GraphOracle
from .heights import GammaHeight, HeightFunction, transport

DEFAULT_NODE_BUDGET = 50_000_000


def default_budget() -> int:
    env = os.environ.get("SAWLAB_BUDGET")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError("SAWLAB_BUDGET must be a positive integer")
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
    each step by `h.across`, from 0 at the start for the word sum
    `GammaHeight` and from `h.at` of the start for any other height.

    Without `out`, the DFS never enters depth `remaining`: the loop over
    the children of a node at depth `remaining` - 2 also scans each
    child's neighbors and counts there the unvisited ones as the nodes
    below it (for bridges, those strictly above the start) and, as hits,
    those at or above the running maximum including the child. The child
    need not be marked visited for that: no vertex lists itself as a
    neighbor (see `GraphOracle`).
    """
    neighbors = g.neighbors
    visited = dict.fromkeys(path)  # insertion-ordered: the keys are the path
    bridge = h is not None
    h0 = 0
    if bridge:
        across = h.across
        h0 = 0 if isinstance(h, GammaHeight) else h.at(path[0])
    hits = [0] * (remaining + 1)
    nodes = [0] * (remaining + 1)
    # The depth counted in the loop of its grandparent: none with `out`.
    inline = remaining if out is None else 0

    # Heights inside are absolute: relative ones plus h0.
    def extend(v, hv, hmax, depth):
        found = entered = found_below = below = 0
        hw = top = 0
        scan = depth + 1 == inline
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
            if scan:
                if bridge:
                    for x, step in neighbors(w):
                        if x not in visited:
                            hx = across(hw, x, step)
                            if hx > h0:
                                below += 1
                                if hx >= top:
                                    found_below += 1
                else:
                    for x, _ in neighbors(w):
                        if x not in visited:
                            below += 1
            elif depth < remaining:
                visited[w] = None
                extend(w, hw, top, depth + 1)
                del visited[w]
            elif out is not None:
                out.append((tuple(visited) + (w,), hw - h0, hmax - h0))
        hits[depth] += found
        nodes[depth] += entered
        if scan:
            hits[inline] += found_below if bridge else below
            nodes[inline] += below

    extend(path[-1], hv + h0, hmax + h0, 1)
    del extend  # frees `visited` on return, as in `_walk_ball`
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
    them. `labels[i]` holds the oracle's labels of the edges in
    `rows[i]`, entry for entry; rows with the same labels share one
    tuple. The orbit finder reads them (`_prefix_orbits`). `undirected`
    marks a SAW ball: for inner i and j, rows[i] lists j as often as
    rows[j] lists i, and no row lists its own id, as the oracle's
    neighbors do (an undirected graph without loops). `_walk_ball`
    counts the last step of a SAW by that.
    """

    rows: List[List[int]]
    heights: List[int]
    labels: List[Tuple[str, ...]]
    undirected: bool = False


def _compile_ball(
    g: GraphOracle, h: Optional[HeightFunction], start, n: int
) -> Optional[_CompiledBall]:
    """The radius-`n` ball around `start` for `_walk_ball`, or None if it
    has more than MAX_BALL_VERTICES inner vertices.

    One `heights.transport` BFS gives the ids, rows, labels and heights,
    so an error of the oracle or the height propagates, and
    HeightConflict is raised if an edge the ball keeps gives an inner
    vertex two heights.
    """
    ids: Dict[object, int] = {}
    carried: List[int] = []
    rows: List[List[int]] = []
    labels: List[Tuple[str, ...]] = []
    shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    leaves: Dict[int, int] = {}  # leaf id per height
    for depth, row, names in transport(g, h, start, n, ids, carried, above=h is not None):
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
        names = tuple(names)
        labels.append(shared.setdefault(names, names))
    heights = [hv - carried[0] for hv in carried[:len(ids)]] + list(leaves)
    return _CompiledBall(rows, heights, labels, h is None)


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

    Without `out`, the DFS never enters depth `remaining`. On a SAW ball
    (`ball.undirected`) with `remaining` >= 2 it keeps `cnt[x]`, the
    number of entries equal to x in the rows of the path's ids, built
    from `path` and updated as the DFS enters and leaves an id. A child w
    at depth `remaining` - 1 is inner, and each entry of rows[w] that is
    a path id j stands for one entry w in rows[j], so w has
    len(rows[w]) - cnt[w] unvisited entries: the nodes below it, all
    hits. On a bridge ball the loop over w's parent's row scans rows[w]
    instead, as `_walk` does.
    """
    rows, heights = ball.rows, ball.heights
    visited = bytearray(len(heights))
    for i in path:
        visited[i] = 1
    hits = [0] * (remaining + 1)
    nodes = [0] * (remaining + 1)

    if out is None and ball.undirected and remaining > 1:
        cnt = [0] * len(heights)
        for i in path:
            for x in rows[i]:
                cnt[x] += 1

        def extend(v, depth):
            entered = below = 0
            if depth + 1 == remaining:
                for w in rows[v]:
                    if not visited[w]:
                        entered += 1
                        below += len(rows[w]) - cnt[w]
                nodes[remaining] += below
            else:
                for w in rows[v]:
                    if not visited[w]:
                        entered += 1
                        visited[w] = 1
                        row = rows[w]
                        for x in row:
                            cnt[x] += 1
                        extend(w, depth + 1)
                        for x in row:
                            cnt[x] -= 1
                        visited[w] = 0
            nodes[depth] += entered

        extend(path[-1], 1)
        hits = nodes[:]  # every SAW is a hit
    else:
        trail = list(path)
        # The depth counted in the loop of its grandparent: none with `out`.
        inline = remaining if out is None else 0

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
            elif depth + 1 == inline:
                found_below = below = 0
                for w in rows[v]:
                    if not visited[w]:
                        entered += 1
                        hw = heights[w]
                        if hw >= hmax:
                            found += 1
                            top = hw
                        else:
                            top = hmax
                        for x in rows[w]:  # w is not in rows[w]: no loops
                            if not visited[x]:
                                below += 1
                                if heights[x] >= top:
                                    found_below += 1
                hits[inline] += found_below
                nodes[inline] += below
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
    # `extend` refers to itself; emptying that reference frees `visited`
    # on return rather than at the next garbage collection, which matters
    # when a pass extends hundreds of prefixes.
    del extend
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


# The process pool class, None for the standard library's, which is
# resolved at the first pool start. Tests and benchmarks bind a subclass.
ProcessPoolExecutor: Optional[type] = None

# Set once in each pool worker by `_init_worker`, the pool's initializer,
# so that tasks carry only (prefix, rest, hv, hmax).
_worker_state: Optional[_WalkerState] = None


def _init_worker(state: _WalkerState) -> None:
    global _worker_state
    _worker_state = state


def _walk_task(task) -> Tuple[List[int], List[int]]:
    return _extend(_worker_state, *task)


# ---------------------------------------------------------------------------
# Certified symmetry of a compiled ball
# ---------------------------------------------------------------------------


def _label_positions(ball: _CompiledBall) -> List[Dict[str, int]]:
    """Per row, the position of each of its labels (the last one, if a
    label repeats); rows with the same labels share one dict."""
    shapes = {labels: {label: k for k, label in enumerate(labels)} for labels in set(ball.labels)}
    return [shapes[labels] for labels in ball.labels]


def _certify(ball: _CompiledBall, move: Dict[str, str],
             where: Optional[List[Dict[str, int]]] = None) -> Optional[List[int]]:
    """The automorphism of `ball` that fixes the start and steps along
    label `move.get(l, l)` wherever the ball steps along label l, as a map
    of inner ids; None if there is none.

    A BFS from id 0 sets phi(w.l) = phi(w).move(l), and phi is accepted
    only if it is a bijection of the inner ids that maps every row onto a
    row entry for entry, maps each leaf entry to the same leaf id and
    keeps every height. Such a phi maps the walks that extend a path of
    ids bijectively onto those that extend its image, with the same
    heights, so both have the same tallies. A row that repeats a label
    rejects phi. `where` is `_label_positions(ball)`, which callers that
    certify many moves on one ball compute once.
    """
    rows, heights = ball.rows, ball.heights
    inner = len(rows)
    if where is None:
        where = _label_positions(ball)
    phi = [-1] * inner
    phi[0] = 0
    taken = bytearray(inner)
    taken[0] = 1
    # Ids are in BFS order, so phi(i) is set before row i is read.
    for i in range(inner):
        v = phi[i]
        row, image = rows[i], rows[v]
        if len(row) != len(image):
            return None
        positions = where[v]
        if len(positions) < len(image):
            return None
        for j, label in zip(row, ball.labels[i]):
            k = positions.get(move.get(label, label))
            if k is None:
                return None
            w = image[k]
            if j >= inner or w >= inner:
                if w != j:
                    return None
            elif phi[j] < 0:
                if taken[w]:
                    return None
                phi[j] = w
                taken[w] = 1
            elif phi[j] != w:
                return None
    if any(heights[phi[i]] != heights[i] for i in range(inner)):
        return None
    return phi


def _label_moves(g: GraphOracle, start, names: List[str]) -> List[Dict[str, str]]:
    """Candidate label permutations, each as {label: image} for the
    labels it moves: those that commute with the edge-label inversion and
    move at most two inversion classes.

    The inversion is read from the oracle at `start` (a bridge ball drops
    the edges back down): l and m are inverse if the l-edge from the
    start comes back along m and the m-edge along l. A class is an
    inverse pair {l, m}, a self-inverse label, or a label with no
    inverse read; a candidate maps classes onto classes of the same kind,
    so there are O(|names|^2) of them. The candidates only prune: each
    accepted one is certified by `_certify`.
    """
    inverse = {}
    for w, label in g.neighbors(start):
        back = [m for u, m in g.neighbors(w) if u == start]
        if len(back) == 1:
            inverse[label] = back[0]
    known = set(names)
    classes: List[tuple] = []
    kinds: List[str] = []
    seen = set()
    for label in names:
        if label in seen:
            continue
        m = inverse.get(label)
        if m is None or m not in known or inverse.get(m) != label:
            cls, kind = (label,), "free"
        elif m == label:
            cls, kind = (label,), "involution"
        else:
            cls, kind = (label, m), "pair"
        seen.update(cls)
        classes.append(cls)
        kinds.append(kind)
    moves = []
    for a, cls in enumerate(classes):
        if kinds[a] == "pair":
            p, P = cls
            moves.append({p: P, P: p})
        for b in range(a + 1, len(classes)):
            if kinds[b] != kinds[a]:
                continue
            if kinds[a] != "pair":
                moves.append({cls[0]: classes[b][0], classes[b][0]: cls[0]})
                continue
            p, P = cls
            q, Q = classes[b]
            moves.append({p: P, P: p, q: Q, Q: q})
            # The four maps that exchange the two pairs.
            for x, X in ((q, Q), (Q, q)):
                for y, Y in ((p, P), (P, p)):
                    moves.append({p: x, P: X, q: y, Q: Y})
    return moves


def _prefix_orbits(ball: _WalkerState, moves: List[Dict[str, str]],
                   prefixes: list) -> Dict[int, int]:
    """The orbits of the listed prefixes under the certified `moves`, as
    {index of each orbit's first prefix: number of listed prefixes in
    it}, in listing order. `ball` is read only if there are moves, which
    needs it to be a compiled ball.

    Each prefix is read as the word of labels along it. A candidate move
    is certified (`_certify`) only if it maps every word onto the word of
    a listed prefix, as an automorphism must, and would merge two orbits;
    a certified move then merges the orbits of each prefix and its image
    (union-find, the root of a class its smallest index). The classes
    only get coarser, so a move that merges nothing when it is read
    merges nothing later: they end as the orbits of the group that all
    certifiable moves generate. Listed copies of one path of ids (along
    parallel edges) have the same extensions and share an orbit. A ball
    with a row that repeats a label leaves the orbits single.
    """
    parent: List[int] = []
    first: Dict[tuple, int] = {}  # the first index of each listed path
    for i, (path, _, _) in enumerate(prefixes):
        parent.append(first.setdefault(path, i))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if moves and all(len(set(labels)) == len(labels) for labels in set(ball.labels)):
        rows, labels = ball.rows, ball.labels
        where = _label_positions(ball)
        words = [[labels[v][rows[v].index(w)] for v, w in zip(path, path[1:])]
                 for path in first]
        for move in moves:
            pairs = []
            for i, word in zip(first.values(), words):
                v, image = 0, [0]
                for label in word:
                    k = where[v].get(move.get(label, label))
                    if k is None:
                        break  # the image stops short: it is not listed
                    v = rows[v][k]
                    image.append(v)
                j = first.get(tuple(image))
                if j is None:
                    break
                pairs.append((i, j))
            else:
                if (any(find(i) != find(j) for i, j in pairs)
                        and _certify(ball, move, where) is not None):
                    for i, j in pairs:
                        a, b = find(i), find(j)
                        parent[max(a, b)] = min(a, b)
    return Counter(find(i) for i in range(len(parent)))


def _cayley_ball(g: GraphOracle, start, n: int) -> Optional[_CompiledBall]:
    """The ball that certifies the symmetries of a SAW count to length `n`
    on a Cayley oracle (`g.cayley`) that walks without a compiled ball,
    and from which `_word_tallies` reads the closed words:
    radius R + 1 with R = max(n // 2, SPLIT_DEPTH), so that the vertices
    within R of `start` are inner; None if it passes MAX_BALL_VERTICES too.

    Why it suffices: a walk along a label word is self-avoiding iff no
    factor of the word closes, and on a Cayley graph whether a word
    closes does not depend on where it starts, so a label move m that
    maps the closed words of length <= n onto closed words, and back,
    maps the SAWs of length <= n that extend a prefix onto those that
    extend its image. Every vertex of a closed walk of length k <= n
    from the start lies within k // 2 <= R of it, so the walk steps only
    between inner vertices, along rows that the map phi of `_certify`
    carries entry for entry onto the rows of phi's images; phi fixes the
    start, so it carries the walk onto the walk along m(word), which
    closes too. phi is a bijection of the inner ids that sends inner
    entries to inner entries and leaf entries to leaves, so phi^-1 does
    the same for m^-1. With n = 6 and radius n // 2 instead, the closed
    word x^6 of Z_6 x Z_8 reaches a leaf, and x <-> y would pass.

    The ball lists the same prefixes as the oracle, in the same order:
    both listings are a DFS in the oracle's neighbor order, and with
    R >= SPLIT_DEPTH every prefix vertex is inner, with an id of its own.
    Bridge counts do not certify on it: a move must also keep every
    height, and on tree3 and lamplighter the only candidates (s1 <-> t,
    t <-> u) negate the GHF. They read it only for `_word_tallies`.
    """
    return _compile_ball(g, None, start, max(n // 2, SPLIT_DEPTH) + 1)


def _word_tallies(g: GraphOracle, h: Optional[HeightFunction], start, ball: _CompiledBall,
                  n: int) -> Optional[Tuple[List[int], List[int]]]:
    """`_walk(g, h, (start,), n)`'s tallies (hits, nodes), counted as
    label words on a Cayley oracle from its `_cayley_ball` to length `n`,
    for SAWs (`h` None) or bridges under a word sum (`GammaHeight`);
    None if a row of `ball` repeats a label or lacks one of the start's,
    or if the automaton below passes MAX_BALL_VERTICES states or its
    listing MAX_BALL_VERTICES * n nodes.

    Why it is exact: a walk along a word is self-avoiding iff no factor
    of the word closes, and every closed factor contains one that closes
    with no vertex repeated in between. On a Cayley graph whether a word
    closes does not depend on where it starts, so the SAWs of length
    <= n are the words that have no factor among the words of the simple
    closed walks of length <= n from the start. Every vertex of such a
    walk lies within n // 2 of the start, an inner vertex of `ball`
    (see `_cayley_ball`), so a DFS over the inner ids with a visited
    mask, pruned to the ids from which the start is still in reach
    (steps taken + distance <= n), lists them all. The listed words go
    into an Aho-Corasick automaton (Aho & Corasick, CACM 18, 1975),
    whose dead states are those whose read text ends in a listed word,
    and the walks of length k are its paths of k letters that avoid a
    dead state. A word-sum height is the sum of the letters' increments,
    so one DP over (state, height, running maximum) applies `_walk`'s
    bridge tests step by step: each step must end above the start, and
    a walk counts if it ends at or above the running maximum. Without a
    repeated label a word names one walk, so the tallies count walks as
    `_walk` does, parallel edges apart.
    """
    star = g.neighbors(start)
    letter = {label: a for a, (_, label) in enumerate(star)}
    if len(letter) != len(star) or any(
            len(labels) != len(star) or set(labels) != letter.keys()
            for labels in set(ball.labels)):
        return None
    rise = [0 if h is None else h.across(0, w, label) for w, label in star]
    rows, labels = ball.rows, ball.labels
    inner = len(rows)
    # Distance from the start; n + 1 at the leaves, which no closed walk
    # of length <= n reaches.
    far = [n + 1] * len(ball.heights)
    far[0] = 0
    for i in range(inner):  # ids are in BFS order
        for j in rows[i]:
            if j < inner and far[j] > far[i] + 1:
                far[j] = far[i] + 1

    # The trie of the listed words: per state, {letter: next state}.
    trie: List[Dict[int, int]] = [{}]
    dead = [False]
    word: List[int] = []
    visited = bytearray(inner)
    stack = [(0, iter(zip(rows[0], labels[0])))]  # the path's ids and rows
    listed = 0
    while stack:
        for j, label in stack[-1][1]:
            if j == 0:
                state = 0
                for a in chain(word, (letter[label],)):
                    nxt = trie[state].get(a)
                    if nxt is None:
                        nxt = trie[state][a] = len(trie)
                        trie.append({})
                        dead.append(False)
                    state = nxt
                dead[state] = True
                if len(trie) > MAX_BALL_VERTICES:
                    return None
            elif len(stack) + far[j] <= n and not visited[j]:
                listed += 1
                if listed > MAX_BALL_VERTICES * n:
                    return None
                visited[j] = 1
                word.append(letter[label])
                stack.append((j, iter(zip(rows[j], labels[j]))))
                break
        else:
            visited[stack.pop()[0]] = 0
            if word:
                word.pop()

    # Aho-Corasick: complete the trie's moves by the failure links, in
    # BFS order, so that a failure target is complete before it is read.
    moves: List[List[int]] = [[]] * len(trie)
    fail = [0] * len(trie)
    moves[0] = [trie[0].get(a, 0) for a in range(len(star))]
    queue = list(trie[0].values())
    for s in queue:
        back = moves[fail[s]]
        dead[s] = dead[s] or dead[fail[s]]
        for a, t in trie[s].items():
            fail[t] = back[a]
            queue.append(t)
        moves[s] = [trie[s].get(a, back[a]) for a in range(len(star))]

    # Per letter, the next state from each state; -1 if it is dead.
    steps = [[-1 if dead[row[a]] else row[a] for row in moves] for a in range(len(star))]
    hits = [0] * (n + 1)
    nodes = [0] * (n + 1)
    bridge = h is not None
    # (height, running maximum) -> {state: walks}. A step enters the group
    # whose height is its maximum exactly when its walk counts.
    walks = {(0, 0): {0: 1}}
    for k in range(1, n + 1):
        grown: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (hv, top), group in walks.items():
            for step, up in zip(steps, rise):
                hw = hv + up
                if bridge and hw <= 0:
                    continue
                into = grown.setdefault((hw, max(hw, top)), {})
                for s, c in group.items():
                    t = step[s]
                    if t >= 0:
                        into[t] = into.get(t, 0) + c
        for (hv, top), group in grown.items():
            total = sum(group.values())
            nodes[k] += total
            if hv == top:
                hits[k] += total
        walks = grown
    return hits, nodes


# ---------------------------------------------------------------------------
# Public counting API
# ---------------------------------------------------------------------------

# A pass with more than one thread runs in the process pool only if it is
# big enough to pay for starting the pool: the bound on the nodes at its
# deepest depth, weighted by the cost of a node, must be at least
# POOL_MIN_NODES. A node of the oracle walker `_walk` costs about
# ORACLE_NODE_COST nodes of the compiled-ball walker. Measured on a
# 2-vCPU machine (median of 7 fresh processes), two threads lost wall
# time on grandparent's n = 6 pass, bounded at 129,654 nodes, and gained
# on passes bounded at 196,608: hexagonal n = 18 on its ball, and tree3
# and lamplighter n = 15 on the oracle while they still walked it (they
# count words now; the oracle passes that fan out are those of longer
# counts, such as heisenberg SAWs past n = 9). The threshold lies
# between. Both numbers are exact integers, so the choice is the same on
# every run. Since a pass's first pool also imports `multiprocessing`
# (about 22 ms of CPU), the counts were timed again: wall time of a
# fresh `sawlab count` process, --threads 1 -> 2, medians of 7
# interleaved runs in three sets on 2 vCPUs. grandparent n = 6, which
# starts no pool at either count, read 0.258 -> 0.261, 0.204 -> 0.231
# and 0.280 -> 0.269 s, so differences under about 30 ms are noise.
# hexagonal n = 18 read 0.331 -> 0.354, 0.328 -> 0.343 and 0.389 ->
# 0.401 s, and zd2 n = 13 (bound 295,245) 0.213 -> 0.288, 0.259 -> 0.289
# and 0.297 -> 0.350 s. Two threads no longer gain at 196,608, so the
# threshold may now lie above it; a rule that fits every model is
# ROADMAP item 7.
POOL_MIN_NODES = 150_000
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
               pools: list, moves: List[Dict[str, str]], orbits: Dict[int, int],
               certified: Optional[_CompiledBall] = None) -> Tuple[List[int], List[int]]:
    """Tally hits and nodes at every depth up to `target` in one DFS.

    With more than one thread, or with candidate label `moves` (from
    `_label_moves`), the prefixes of length SPLIT_DEPTH are listed first
    and merged into orbits (`_prefix_orbits`) on the ball the moves are
    certified on: `state`, or the oracle's `certified` ball
    (`_cayley_ball`), which lists the same prefixes in the same order.
    The first such pass of a count fills `orbits`, and later passes,
    which list the same prefixes, reuse it. One prefix per orbit is
    extended, and its tallies count once for every prefix of the orbit.
    A self-avoiding walk has at most `degree` - 1 ways to go on, so the
    number of extended prefixes bounds the nodes at depth `target`; if
    that bound is large enough (POOL_MIN_NODES) and there is more than
    one thread, they are extended in a process pool of at most one
    worker per CPU, started on first use and kept in `pools`, and
    otherwise here. Either way the tallies are those of the full DFS,
    for any thread count.
    """
    if target <= SPLIT_DEPTH or (threads == 1 and not moves):
        return _extend(state, root, target)
    prefixes: list = []
    hits, nodes = _extend(state, root, SPLIT_DEPTH, out=prefixes)
    rest = target - SPLIT_DEPTH
    if not orbits:
        if certified is None:
            orbits.update(_prefix_orbits(state, moves, prefixes))
        else:
            listed: list = []
            _walk_ball(certified, (0,), SPLIT_DEPTH, out=listed)
            assert len(listed) == len(prefixes)
            orbits.update(_prefix_orbits(certified, moves, listed))
    tasks = []
    for i in orbits:
        path, hv, hm = prefixes[i]
        tasks.append((path, rest, hv, max(hv, hm)))
    size = len(tasks) * (degree - 1) ** rest
    if not isinstance(state, _CompiledBall):
        size *= ORACLE_NODE_COST
    if threads == 1 or size < POOL_MIN_NODES:
        results = [_extend(state, *task) for task in tasks]
    else:
        # Tables are the same at any thread count, so more workers than
        # CPUs would only cost processes.
        workers = min(threads, os.cpu_count() or 1)
        if not pools:
            pools.append((ProcessPoolExecutor or concurrent.futures.ProcessPoolExecutor)(
                max_workers=workers, initializer=_init_worker, initargs=(state,)))
        # About four chunks per worker: orbits differ in size, so a few
        # big chunks can leave a worker idle, while one message per task
        # costs more than a small task's walk. Results come in task order.
        chunksize = max(1, len(tasks) // (4 * workers))
        results = pools[0].map(_walk_task, tasks, chunksize=chunksize)
    hits += [0] * rest
    nodes += [0] * rest
    for weight, (task_hits, task_nodes) in zip(orbits.values(), results):
        for j in range(1, rest + 1):
            hits[SPLIT_DEPTH + j] += weight * task_hits[j]
            nodes[SPLIT_DEPTH + j] += weight * task_nodes[j]
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
    else:
        g.check_vertex(start)
    # A depth-(k+1) pass expands at most (1 + degree_bound) times the
    # nodes of the depth-k pass, so this projection never overshoots.
    degree = g.degree_bound()
    factor = 1 + degree
    ball = _compile_ball(g, h, start, n_max)
    state: _WalkerState = (g, h) if ball is None else ball
    root = (start,) if ball is None else (0,)
    hits: List[int] = []  # the last real pass's tallies, to depth `tallied`
    nodes: List[int] = []
    tallied = 0
    # A count on a Cayley oracle without a ball of its own reads its
    # `_cayley_ball`: a SAW count, or a bridge count under a word sum,
    # first counts words there (`_word_tallies`); failing that, a SAW
    # count certifies its moves on it. Other moves are certified on the
    # ball the count walks.
    certified = None
    if ball is None and g.cayley and n_max > SPLIT_DEPTH and (
            h is None or isinstance(h, GammaHeight)):
        certified = _cayley_ball(g, start, n_max)
        words = None if certified is None else _word_tallies(g, h, start, certified, n_max)
        if words is not None:
            (hits, nodes), tallied = words, n_max
        if h is not None or words is not None:
            certified = None
    labelled = ball if certified is None else certified
    moves = [] if labelled is None or n_max <= SPLIT_DEPTH else _label_moves(
        g, start, list(dict.fromkeys(chain.from_iterable(labelled.labels))))
    orbits: Dict[int, int] = {}  # filled by the first pass that lists prefixes
    counts: Dict[int, int] = {0: 1}
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
                hits, nodes = _real_pass(state, root, tallied, threads, degree, pools, moves,
                                         orbits, certified)
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


def check_multiplicativity(table: CountTable) -> List[Tuple[int, int]]:
    """The pairs (m, n), m <= n, m + n <= high_water, that break
    sigma_{m+n} <= sigma_m sigma_n in a SAW table or b_{m+n} >= b_m b_n
    in a bridge table."""
    c, top, sign = table.counts, table.high_water, 1 if table.kind == "saw" else -1
    return [
        (m, n)
        for m in range(1, top)
        for n in range(m, top - m + 1)
        if sign * (c[m + n] - c[m] * c[n]) > 0
    ]


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


def _best_root(table: CountTable, indices: Sequence[int], sign: int) -> int:
    """The first of `indices` whose n-th root of the count is the largest
    (sign 1) or the smallest (sign -1), compared exactly."""
    c = table.counts
    return max(indices, key=cmp_to_key(lambda m, n: sign * root_compare(c[m], m, c[n], n)))


def mu_bounds(
    sigma_table: Optional[CountTable],
    bridge_table: Optional[CountTable],
    precision: int = 10,
) -> BoundsReport:
    """Per-n root bounds and the best ones.

    Upper bounds sigma_n^{1/n} are valid for every n (submultiplicative
    sequence); the best is the exact minimum. Bridge counts are
    supermultiplicative, so by Fekete's lemma every b_n^{1/n} is at most
    the bridge constant beta <= mu: every row's lower root is a valid
    lower bound. The best lower bound is still the exact maximum over the
    doubling subsequence 1, 2, 4, ... only, which keeps the artifacts
    byte-identical until bounds take the maximum over every n. Roots are
    rendered from exact integers, lower bounds rounded down and upper
    bounds rounded up; best selection uses exact cross-power comparison,
    never the decimal renderings.
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

    best_upper_n = _best_root(sigma_table, range(1, s_top + 1), -1) if s_top else None
    best_lower_n = _best_root(bridge_table, doubling_indices(b_top), 1) if b_top else None
    return BoundsReport(
        model=(sigma_table or bridge_table).model,
        height_name=bridge_table.height_name if bridge_table else None,
        precision=precision,
        rows=rows,
        best_lower=rows[best_lower_n - 1].lower_root if best_lower_n else None,
        best_lower_n=best_lower_n,
        best_upper=rows[best_upper_n - 1].upper_root if best_upper_n else None,
        best_upper_n=best_upper_n,
    )


def render_json(doc: dict, timestamp: Optional[str] = None) -> str:
    """The bytes of a JSON artifact: `doc` with sorted keys, indent 2 and
    a trailing newline, plus `generated_at` when a timestamp is given."""
    if timestamp is not None:
        doc = {**doc, "generated_at": timestamp}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

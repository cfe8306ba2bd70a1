"""Rooted ball isomorphism, the locality radius K(G, G'), and
convergence scans for quotient families.

K(G, G') is the largest k such that the distance-k balls around the
roots are isomorphic as rooted graphs. The ball is chosen by
`convention` (see `graphs.Ball`): "induced" (the default) keeps every
edge between ball vertices; "walk" is the walk ball S_k, which drops the
edges joining two vertices at distance exactly k. The two radii satisfy
K_induced <= K_walk <= K_induced + 1. Isomorphism testing is exact:
joint color refinement on (distance from root, degree), then
deterministic backtracking that preserves adjacency and non-adjacency.
After its first round the refinement recomputes only the classes next
to a class that split, and names the colors as a full recomputation of
every class would (`_joint_refine`). The backtracking order sorts by
color, so the witness is the same either way.

A walk of length <= n from the root reaches distance n at its last step
at the earliest, so it never uses an edge between two vertices at
distance n: n-step walk counts see only the walk ball S_n. Count tables
of two graphs must therefore agree for all n <= K under either
convention; the scan verifies this and reports bound gaps for the family.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import DEFAULT_BALL_BUDGET, Ball, BallGrowth, GraphOracle, resolve_model
from .heights import resolve_height
from ._linalg import integer_kernel
from .presentations import PRESENTATION_PRESETS, coefficient_matrix, preset_presentation
from .saw import CountTable, count_bridges, count_saws, mu_bounds


# ---------------------------------------------------------------------------
# Rooted isomorphism
# ---------------------------------------------------------------------------


def _joint_refine(
    adj_a: List[List[int]],
    adj_b: List[List[int]],
    init_a: List,
    init_b: List,
) -> Tuple[List[int], List[int]]:
    """Color refinement run jointly so color names are comparable.

    Each round renames every vertex by the rank of its signature (color,
    sorted neighbor colors) among all signatures of both graphs, until a
    round splits no class. Colors are contiguous and every signature
    starts with the old color, so that rank is the number of parts of
    the classes before the vertex's class plus the rank of its neighbor
    colors within its class. A class with no neighbor in a class that
    split last round keeps one part: its members had equal signatures,
    and the colors of their neighbors were renamed one to one. Nor does
    one whose only such neighbors lie in the largest part of a split:
    its members have equally many neighbors in the whole class and none
    in the other parts. So only the classes next to the smaller parts of
    a split are recomputed, and the names are those of the full
    recomputation.
    """
    n_a = len(adj_a)
    adj = adj_a + [[n_a + j for j in row] for row in adj_b]
    palette = {s: c for c, s in enumerate(sorted(set(init_a) | set(init_b)))}
    col = [palette[s] for s in init_a] + [palette[s] for s in init_b]
    members: List[List[int]] = [[] for _ in palette]
    for v, c in enumerate(col):
        members[c].append(v)
    stale = range(len(members))
    while True:
        # Class -> its parts, ordered by neighbor colors, if it splits.
        parts: Dict[int, List[List[int]]] = {}
        for c in stale:
            vs = members[c]
            if len(vs) == 1:
                continue
            keys = [tuple(sorted([col[u] for u in adj[v]])) for v in vs]
            if keys.count(keys[0]) == len(keys):
                continue
            groups: Dict[tuple, List[int]] = {}
            for v, key in zip(vs, keys):
                groups.setdefault(key, []).append(v)
            parts[c] = [groups[key] for key in sorted(groups)]
        if not parts:
            return col[:n_a], col[n_a:]
        first = min(parts)
        renamed = members[:first]
        for c in range(first, len(members)):
            renamed += parts.get(c, (members[c],))
        members = renamed
        for c in range(first, len(members)):
            for v in members[c]:
                col[v] = c
        stale = set()
        for split in parts.values():
            largest = max(split, key=len)
            stale.update(col[u] for part in split if part is not largest
                         for v in part for u in adj[v])


def ball_iso(ba: Ball, bb: Ball) -> Tuple[bool, Optional[List[Tuple[str, str]]]]:
    """Rooted-graph isomorphism of two built balls (see `graphs.ball`).

    Returns (verdict, witness); the witness lists canonical-key pairs of
    a root-preserving bijection that preserves adjacency both ways.
    """
    if ba.vertex_count() != bb.vertex_count():
        return False, None
    if len(ba.edges) != len(bb.edges):
        return False, None

    adj_a = ba.adjacency()
    adj_b = bb.adjacency()
    init_a = [(ba.distances[i], len(adj_a[i])) for i in range(len(adj_a))]
    init_b = [(bb.distances[i], len(adj_b[i])) for i in range(len(adj_b))]
    col_a, col_b = _joint_refine(adj_a, adj_b, init_a, init_b)
    if Counter(col_a) != Counter(col_b):
        return False, None

    # Backtracking in BFS order: every vertex after the root has a
    # previously mapped neighbor, so partial maps are tightly constrained.
    n = len(adj_a)
    order = sorted(range(n), key=lambda i: (ba.distances[i], col_a[i], i))
    by_color: Dict[int, List[int]] = {}
    for j in range(n):
        by_color.setdefault(col_b[j], []).append(j)
    adj_sets_b = [set(js) for js in adj_b]

    # Depth-first search with an explicit stack, one frame per mapped
    # position: (vertex a, images of its mapped neighbors, iterator over
    # the candidates b still to try). Balls have thousands of vertices, so
    # a Python frame per position would exceed the recursion limit.
    mapping: Dict[int, int] = {}
    used = [False] * n
    frames: List[tuple] = []
    advance = True  # False: the top frame's choice failed further down
    while True:
        if advance:
            if len(mapping) == n:
                break
            a = order[len(mapping)]
            mapped_image = [mapping[x] for x in adj_a[a] if x in mapping]
            frames.append((a, mapped_image, iter(by_color.get(col_a[a], ()))))
        elif not frames:
            return False, None
        else:
            used[mapping.pop(frames[-1][0])] = False
        a, mapped_image, candidates = frames[-1]
        advance = False
        for b in candidates:
            if used[b]:
                continue
            neigh_b = adj_sets_b[b]
            if any(mb not in neigh_b for mb in mapped_image):
                continue
            if sum(1 for x in neigh_b if used[x]) != len(mapped_image):
                continue
            mapping[a] = b
            used[b] = True
            advance = True
            break
        if not advance:
            frames.pop()

    witness = sorted(
        (ba.keys[a].decode(), bb.keys[b].decode()) for a, b in mapping.items()
    )
    return True, witness


@dataclass
class IsoRadiusResult:
    """K and the per-radius evidence. `at_least` means the true K may be
    larger: every radius up to the bound matched (or the budget stopped
    the search), so only K >= k is known."""

    k: int
    at_least: bool
    witness: Optional[List[Tuple[str, str]]]
    budget_hit: bool = False

    @property
    def verdicts(self) -> Dict[int, bool]:
        """Radius -> isomorphic: True up to K, False at K + 1 unless
        `at_least`."""
        out = dict.fromkeys(range(self.k + 1), True)
        if not self.at_least:
            out[self.k + 1] = False
        return out

    def display(self) -> str:
        return f">= {self.k}" if self.at_least else str(self.k)


def iso_radius(
    g_a: GraphOracle,
    g_b: GraphOracle,
    bound: int,
    max_vertices: int = DEFAULT_BALL_BUDGET,
    convention: str = "induced",
) -> IsoRadiusResult:
    """Largest k <= bound with isomorphic rooted balls of `convention`.

    The verdicts are monotone: a rooted isomorphism of the radius-(k+1)
    ball restricts to one of the radius-k ball. For the induced ball this
    is plain restriction. For the walk ball it holds too: the isomorphism
    preserves distance from the root, and the walk ball of radius k+1
    keeps every edge among vertices at distance <= k, so it restricts to
    an isomorphism of the induced radius-k ball, and hence of the walk
    ball of radius k.

    So each graph's ball is grown once, layer by layer beside the other,
    up to `bound`, or until a layer would take either ball past
    `max_vertices`, or until the layers differ in size. Every smaller
    ball is a prefix of the grown one (`Ball.restrict`). The candidate
    radius is the last one up to which the per-radius vertex and edge
    counts agree; it is checked first, and if it fails, the radii below
    it are bisected. K is the largest radius that checked isomorphic (0,
    the root alone, if none did), and the witness is that check's, so
    `k`, `at_least`, `verdicts` ({0..K: True, K+1: False}), `witness` and
    `budget_hit` are what checking each radius in increasing order until
    the first failure gives.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    growths = (BallGrowth(g_a, max_vertices), BallGrowth(g_b, max_vertices))
    budget_hit = False
    while growths[0].radius < bound:
        if not all(growth.grow() for growth in growths):
            budget_hit = True
            break
        if growths[0].layer_sizes[-1] != growths[1].layer_sizes[-1]:
            break
    ba, bb = (growth.ball() for growth in growths)
    top = min(ba.radius, bb.radius)
    sizes_a, sizes_b = ba.sizes(convention), bb.sizes(convention)
    candidate = 0
    while candidate < top and sizes_a[candidate + 1] == sizes_b[candidate + 1]:
        candidate += 1

    def check(r: int) -> Tuple[bool, Optional[List[Tuple[str, str]]]]:
        return ball_iso(ba.restrict(r, convention), bb.restrict(r, convention))

    # The root is vertex 0 of a ball: the one vertex at distance 0.
    witness = [(ba.keys[0].decode(), bb.keys[0].decode())]
    # Radius k is isomorphic; radius hi is not, or lies past the candidate.
    k, hi = 0, candidate + 1
    r = candidate
    while r > k:
        ok, wit = check(r)
        if ok:
            k, witness = r, wit
        else:
            hi = r
        r = (k + hi) // 2
    at_least = k >= top
    return IsoRadiusResult(k, at_least, witness, budget_hit and at_least)


# ---------------------------------------------------------------------------
# Family scans
# ---------------------------------------------------------------------------


@dataclass
class ScanRecord:
    m: int
    k: int
    k_display: str
    agree_up_to: int
    discrepancies: List[dict]
    lower_bound: Optional[str]
    upper_bound: Optional[str]
    table_digest: str


@dataclass
class ScanReport:
    base_model: str
    family: str
    n_max: int
    bound: int
    rank_precondition: Optional[dict]
    base_lower: Optional[str]
    base_upper: Optional[str]
    records: List[ScanRecord]
    # Some table stopped at the node budget or some ball at its vertex
    # budget. Not written to the artifacts.
    partial: bool = False

    def to_json_dict(self) -> dict:
        return {
            "base_model": self.base_model,
            "family": self.family,
            "n_max": self.n_max,
            "bound": self.bound,
            "rank_precondition": self.rank_precondition,
            "base_lower": self.base_lower,
            "base_upper": self.base_upper,
            "records": [
                {
                    "m": r.m,
                    "K": r.k,
                    "K_display": r.k_display,
                    "agree_up_to": r.agree_up_to,
                    "discrepancies": r.discrepancies,
                    "lower_bound": r.lower_bound,
                    "upper_bound": r.upper_bound,
                    "table_digest": r.table_digest,
                }
                for r in self.records
            ],
        }

    def to_csv(self) -> str:
        lines = ["m,K,agree_up_to,lower_bound,upper_bound,table_digest"]
        for r in self.records:
            lines.append(
                f"{r.m},{r.k_display},{r.agree_up_to},"
                f"{r.lower_bound or ''},{r.upper_bound or ''},{r.table_digest}"
            )
        return "\n".join(lines) + "\n"


def _digest(*tables: CountTable) -> str:
    h = hashlib.sha256()
    for t in tables:
        h.update(t.to_csv().encode())
    return h.hexdigest()[:16]


def count_agreement(
    base_sigma: CountTable,
    base_bridge: CountTable,
    member_sigma: CountTable,
    member_bridge: CountTable,
    check_up_to: int,
) -> Tuple[int, List[dict]]:
    """(agree_up_to, discrepancies): the counts agree for every n <=
    agree_up_to, which is the first n where they differ less one, or the
    top of the tables if they never differ; the discrepancies are the
    differences with n <= check_up_to."""
    top = min(t.high_water for t in (base_sigma, base_bridge, member_sigma, member_bridge))
    pairs = (("saw", base_sigma, member_sigma), ("bridge", base_bridge, member_bridge))
    differ = [
        {"n": n, "kind": kind, "base": base.counts[n], "member": member.counts[n]}
        for n in range(1, top + 1)
        for kind, base, member in pairs
        if base.counts[n] != member.counts[n]
    ]
    agree_up_to = differ[0]["n"] - 1 if differ else top
    return agree_up_to, [d for d in differ if d["n"] <= check_up_to]


def locality_scan(
    g: GraphOracle,
    family: str,
    n_max: int,
    m_list: Sequence[int],
    bound: Optional[int] = None,
    threads: int = 1,
    precision: int = 10,
    budget: Optional[int] = None,
    convention: str = "induced",
) -> ScanReport:
    """Per-m locality report for a quotient family.

    `family` names the models G_m = resolve_model(f"{family}{m}"), such
    as "cylinder". For each m: K(G, G_m) with balls of `convention`;
    sigma and bridge tables on both sides; verification that counts
    agree for every n <= K (zero discrepancies expected: an n-step walk
    from the root lies inside S_n); and the member's bound pair, which
    stabilizes to the base one as m grows. Bridges use each model's own default height.
    A base model named after a presentation preset also gets the rank
    precondition of that presentation.
    """
    if bound is None:
        bound = n_max

    rank_precondition = None
    if g.name in PRESENTATION_PRESETS:
        pres = preset_presentation(g.name)
        n_gen = len(pres.generators)
        rank = n_gen - len(integer_kernel(coefficient_matrix(pres), n_gen))
        rank_precondition = {
            "presentation": g.name,
            "rank": rank,
            "generators": n_gen,
            "required": f"rank < {n_gen - 1}",
            "satisfied": rank < n_gen - 1,
        }

    base_sigma = count_saws(g, n_max, threads=threads, budget=budget)
    base_bridge = count_bridges(
        g, resolve_height(g), n_max, threads=threads, budget=budget
    )
    base_bounds = mu_bounds(base_sigma, base_bridge, precision=precision)
    partial = base_sigma.partial or base_bridge.partial

    records: List[ScanRecord] = []
    for m in m_list:
        member = resolve_model(f"{family}{m}")
        iso = iso_radius(g, member, bound, convention=convention)
        member_sigma = count_saws(member, n_max, threads=threads, budget=budget)
        member_bridge = count_bridges(
            member, resolve_height(member), n_max, threads=threads, budget=budget
        )
        agree_up_to, discrepancies = count_agreement(
            base_sigma, base_bridge, member_sigma, member_bridge,
            check_up_to=min(iso.k, n_max),
        )
        member_bounds = mu_bounds(member_sigma, member_bridge, precision=precision)
        partial = (partial or iso.budget_hit
                   or member_sigma.partial or member_bridge.partial)
        records.append(
            ScanRecord(
                m=m,
                k=iso.k,
                k_display=iso.display(),
                agree_up_to=agree_up_to,
                discrepancies=discrepancies,
                lower_bound=member_bounds.best_lower,
                upper_bound=member_bounds.best_upper,
                table_digest=_digest(member_sigma, member_bridge),
            )
        )

    return ScanReport(
        base_model=g.name,
        family=family,
        n_max=n_max,
        bound=bound,
        rank_precondition=rank_precondition,
        base_lower=base_bounds.best_lower,
        base_upper=base_bounds.best_upper,
        records=records,
        partial=partial,
    )

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

A walk of length <= n from the root reaches distance n at its last step
at the earliest, so it never uses an edge between two vertices at
distance n: n-step walk counts see only the walk ball S_n. Count tables
of two graphs must therefore agree for all n <= K under either
convention; the scan verifies this and reports bound gaps for the family.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .graphs import DEFAULT_BALL_BUDGET, Ball, BallGrowth, GraphOracle, resolve_model
from .heights import resolve_height
from .presentations import (
    PRESENTATION_PRESETS,
    coefficient_matrix,
    preset_presentation,
    rank_exact,
)
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
    """Color refinement run jointly so color names are comparable."""
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


def _histogram(colors: List[int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for c in colors:
        out[c] = out.get(c, 0) + 1
    return out


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
    if _histogram(col_a) != _histogram(col_b):
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
    larger: every radius up to `bound` matched (or the budget stopped the
    search), so only K >= k is known."""

    k: int
    at_least: bool
    bound: int
    verdicts: Dict[int, bool]
    witness: Optional[List[Tuple[str, str]]]
    budget_hit: bool = False

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

    witness = [(ba.center_key.decode(), bb.center_key.decode())]
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
    verdicts = {r: True for r in range(k + 1)}
    if k < top:
        verdicts[k + 1] = False
        return IsoRadiusResult(
            k=k, at_least=False, bound=bound, verdicts=verdicts, witness=witness
        )
    return IsoRadiusResult(
        k=k,
        at_least=True,
        bound=bound,
        verdicts=verdicts,
        witness=witness,
        budget_hit=budget_hit,
    )


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
    """(largest n with full agreement so far, discrepancies for n <= check_up_to)."""
    agree_up_to = 0
    top = min(
        base_sigma.high_water,
        base_bridge.high_water,
        member_sigma.high_water,
        member_bridge.high_water,
    )
    still_agreeing = True
    discrepancies: List[dict] = []
    for n in range(1, top + 1):
        s_ok = base_sigma.counts[n] == member_sigma.counts[n]
        b_ok = base_bridge.counts[n] == member_bridge.counts[n]
        if still_agreeing and s_ok and b_ok:
            agree_up_to = n
        elif not (s_ok and b_ok):
            still_agreeing = False
        if n <= check_up_to:
            if not s_ok:
                discrepancies.append(
                    {
                        "n": n,
                        "kind": "saw",
                        "base": base_sigma.counts[n],
                        "member": member_sigma.counts[n],
                    }
                )
            if not b_ok:
                discrepancies.append(
                    {
                        "n": n,
                        "kind": "bridge",
                        "base": base_bridge.counts[n],
                        "member": member_bridge.counts[n],
                    }
                )
    return agree_up_to, discrepancies


def locality_scan(
    g: GraphOracle,
    family: Union[str, Callable[[int], GraphOracle]],
    n_max: int,
    m_list: Sequence[int],
    bound: Optional[int] = None,
    threads: int = 1,
    precision: int = 10,
    budget: Optional[int] = None,
    convention: str = "induced",
) -> ScanReport:
    """Per-m locality report for a quotient family.

    For each m: K(G, G_m) with balls of `convention`; sigma and bridge
    tables on both sides; verification that counts agree for every
    n <= K (zero discrepancies expected: an n-step walk from the root
    lies inside S_n); and the member's bound pair, which stabilizes to
    the base one as m grows. Bridges use each model's own default height.
    A base model named after a presentation preset also gets the rank
    precondition of that presentation.
    """
    if isinstance(family, str):
        family_name = family

        def family_fn(m: int) -> GraphOracle:
            return resolve_model(f"{family}{m}")

    else:
        family_name = getattr(family, "__name__", "family")
        family_fn = family
    if bound is None:
        bound = n_max

    rank_precondition = None
    if g.name in PRESENTATION_PRESETS:
        pres = preset_presentation(g.name)
        rank = rank_exact(coefficient_matrix(pres))
        rank_precondition = {
            "presentation": g.name,
            "rank": rank,
            "generators": len(pres.generators),
            "required": f"rank < {len(pres.generators) - 1}",
            "satisfied": rank < len(pres.generators) - 1,
        }

    base_sigma = count_saws(g, n_max, threads=threads, budget=budget)
    base_bridge = count_bridges(
        g, resolve_height(g), n_max, threads=threads, budget=budget
    )
    base_bounds = mu_bounds(base_sigma, base_bridge, precision=precision)
    partial = base_sigma.partial or base_bridge.partial

    records: List[ScanRecord] = []
    for m in m_list:
        member = family_fn(m)
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
        family=family_name,
        n_max=n_max,
        bound=bound,
        rank_precondition=rank_precondition,
        base_lower=base_bounds.best_lower,
        base_upper=base_bounds.best_upper,
        records=records,
        partial=partial,
    )

"""Finite group presentations and their letter-count linear algebra.

A presentation lists generator symbols (inverses are separate symbols,
possibly self-paired for involutions), plain relator words, and
optionally affine families of relators whose letter counts are
u0 + n*u1 for n >= 0. The coefficient matrix of letter counts decides,
through its rank and integer kernel, whether the word-length height
h(v) = sum of gamma over the letters of any word for v is well defined
on the whole group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import bareiss_rank, integer_kernel


class PresentationError(ValueError):
    """Malformed presentation document or inconsistent symbol use."""


@dataclass(frozen=True)
class ParamRelatorFamily:
    """Letter counts of an infinite relator family, affine in the index n.

    u0 and u1 are count vectors over the generator list; member n of the
    family has letter-count vector u0 + n*u1 (n >= 0).
    """

    u0: Tuple[int, ...]
    u1: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.u0) != len(self.u1):
            raise PresentationError("family count vectors must have equal length")
        if any(x < 0 for x in self.u0) or any(x < 0 for x in self.u1):
            raise PresentationError("family counts must be non-negative")


@dataclass(frozen=True)
class Presentation:
    generators: Tuple[str, ...]
    inverse_pairs: Tuple[Tuple[str, str], ...] = ()
    relators: Tuple[Tuple[str, ...], ...] = ()
    relator_families: Tuple[ParamRelatorFamily, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        gens = self.generators
        if not gens:
            raise PresentationError("generator list is empty")
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator symbol")
        if "1" in gens or "" in gens:
            raise PresentationError("generator symbol clashes with the identity token")
        seen: set = set()
        for a, b in self.inverse_pairs:
            for s in {a, b}:
                if s not in gens:
                    raise PresentationError(f"inverse pair uses unknown symbol {s!r}")
                if s in seen:
                    raise PresentationError(f"symbol {s!r} appears in two inverse pairs")
                seen.add(s)
        for word in self.relators:
            for s in word:
                if s not in gens:
                    raise PresentationError(f"relator uses unknown symbol {s!r}")
        for fam in self.relator_families:
            if len(fam.u0) != len(gens):
                raise PresentationError("family count vector length != |S|")

    def symbol_index(self) -> Dict[str, int]:
        return {s: i for i, s in enumerate(self.generators)}


@dataclass(frozen=True)
class CoefficientMatrix:
    """One letter-count row per relator, then (u0, u1) per family."""

    rows: Tuple[Tuple[int, ...], ...]
    symbols: Tuple[str, ...]

    def __post_init__(self) -> None:
        for r in self.rows:
            if len(r) != len(self.symbols):
                raise PresentationError("coefficient row length != |S|")
            if any(x < 0 for x in r):
                raise PresentationError("negative letter count")


@dataclass(frozen=True)
class KernelBasis:
    vectors: Tuple[Tuple[int, ...], ...]
    symbols: Tuple[str, ...]


@dataclass(frozen=True)
class GroupHeightSpec:
    """An integer kernel vector gamma, indexed like the generator list."""

    gamma: Tuple[int, ...]
    symbols: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.gamma) != len(self.symbols):
            raise PresentationError("gamma length != |S|")
        if all(g == 0 for g in self.gamma):
            raise PresentationError("gamma must be non-zero")

    def gamma_by_symbol(self) -> Dict[str, int]:
        return dict(zip(self.symbols, self.gamma))


def parse_presentation(text: str | dict) -> Presentation:
    """Parse a presentation document (JSON text or already-loaded dict)."""
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PresentationError(f"invalid JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict) or "generators" not in doc:
        raise PresentationError("document must be an object with a 'generators' list")
    gens = tuple(doc["generators"])
    for g in gens:
        if not isinstance(g, str) or not g:
            raise PresentationError("generators must be non-empty strings")
    pairs = tuple((str(a), str(b)) for a, b in doc.get("inverse_pairs", []))
    relators = []
    for w in doc.get("relators", []):
        if not isinstance(w, str):
            raise PresentationError("relator words must be strings of space-separated symbols")
        relators.append(tuple(w.split()))
    families = []
    gindex = {s: i for i, s in enumerate(gens)}
    for fam in doc.get("relator_families", []):
        u0 = [0] * len(gens)
        u1 = [0] * len(gens)
        for key, vec in (("u0", u0), ("u1", u1)):
            for sym, cnt in fam.get(key, {}).items():
                if sym not in gindex:
                    raise PresentationError(f"family count names unknown symbol {sym!r}")
                if not isinstance(cnt, int) or cnt < 0:
                    raise PresentationError("family counts must be non-negative integers")
                vec[gindex[sym]] = cnt
        families.append(ParamRelatorFamily(tuple(u0), tuple(u1)))
    return Presentation(
        generators=gens,
        inverse_pairs=pairs,
        relators=tuple(relators),
        relator_families=tuple(families),
        name=doc.get("name"),
    )


def coefficient_matrix(p: Presentation) -> CoefficientMatrix:
    idx = p.symbol_index()
    rows: List[Tuple[int, ...]] = []
    for word in p.relators:
        counts = [0] * len(p.generators)
        for s in word:
            counts[idx[s]] += 1
        rows.append(tuple(counts))
    for fam in p.relator_families:
        rows.append(fam.u0)
        rows.append(fam.u1)
    return CoefficientMatrix(rows=tuple(rows), symbols=p.generators)


def rank_exact(c: CoefficientMatrix) -> int:
    return bareiss_rank(c.rows)


def integer_kernel_basis(c: CoefficientMatrix) -> KernelBasis:
    vectors = integer_kernel(c.rows, len(c.symbols))
    return KernelBasis(vectors=tuple(vectors), symbols=c.symbols)


def betti(p: Presentation) -> int:
    c = coefficient_matrix(p)
    return len(c.symbols) - rank_exact(c)


def ghf_exists(p: Presentation) -> bool:
    return betti(p) > 0


def choose_ghf(p: Presentation) -> Optional[GroupHeightSpec]:
    """First primitive kernel basis vector, or None when the kernel is trivial."""
    basis = integer_kernel_basis(coefficient_matrix(p))
    if not basis.vectors:
        return None
    return GroupHeightSpec(gamma=basis.vectors[0], symbols=basis.symbols)


def evaluate_ghf(spec: GroupHeightSpec, word: Sequence[str]) -> int:
    gamma = spec.gamma_by_symbol()
    total = 0
    for s in word:
        if s not in gamma:
            raise PresentationError(f"unknown symbol {s!r}")
        total += gamma[s]
    return total


@dataclass
class WellDefinedReport:
    ok: bool
    witness_relator: Optional[Tuple[str, ...]] = None
    witness_detail: str = ""
    ball_vertices_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_well_defined(
    spec: GroupHeightSpec,
    p: Presentation,
    depth: int = 0,
    oracle=None,
) -> WellDefinedReport:
    """Check gamma annihilates every relator row, and optionally that all
    word spellings of vertices in the radius-`depth` ball agree in height.

    The ball check carries heights along labelled edges of a Cayley
    oracle with `heights.transport`; any two spellings of the same ball
    vertex form a cycle inside the ball, so a conflict-free transport
    certifies agreement. The oracle only needs `root` and
    `neighbors(v) -> [(vertex, label), ...]`; a label outside S raises
    PresentationError.
    """
    gamma = spec.gamma
    c = coefficient_matrix(p)
    labels = list(p.relators) + [
        fam for f in p.relator_families for fam in (("<family u0>",), ("<family u1>",))
    ]
    for row, label in zip(c.rows, labels):
        dot = sum(g * u for g, u in zip(gamma, row))
        if dot != 0:
            return WellDefinedReport(
                ok=False,
                witness_relator=label,
                witness_detail=f"gamma.u = {dot} != 0",
            )
    checked = 0
    if depth > 0 and oracle is not None:
        # heights imports this module, so it is imported here.
        from .heights import GammaHeight, HeightConflict, HeightError, transport

        h = GammaHeight.from_spec(spec)
        ids: Dict[object, int] = {}
        try:
            for _ in transport(oracle, h, oracle.root, depth, ids, [], convention="induced"):
                pass
        except HeightConflict as exc:
            _w, had, got = exc.args
            detail = f"vertex reachable at depth <= {depth} has two heights {had} and {got}"
            return WellDefinedReport(ok=False, witness_detail=detail)
        except HeightError as exc:
            raise PresentationError(str(exc)) from None
        checked = len(ids)
    return WellDefinedReport(ok=True, ball_vertices_checked=checked)


def d_of_ghf(spec: GroupHeightSpec) -> int:
    return max(spec.gamma)


# ---------------------------------------------------------------------------
# Preset presentation documents. These are plain JSON-compatible dicts so the
# CLI can print them and users can diff or modify them.
# ---------------------------------------------------------------------------

PRESENTATION_PRESETS: Dict[str, dict] = {
    "zd2": {
        "name": "zd2",
        "generators": ["x", "y", "X", "Y"],
        "inverse_pairs": [["x", "X"], ["y", "Y"]],
        "relators": ["x X", "y Y", "x y X Y"],
    },
    "zd3": {
        "name": "zd3",
        "generators": ["x", "y", "z", "X", "Y", "Z"],
        "inverse_pairs": [["x", "X"], ["y", "Y"], ["z", "Z"]],
        "relators": ["x X", "y Y", "z Z", "x y X Y", "x z X Z", "y z Y Z"],
    },
    "tree3": {
        "name": "tree3",
        "generators": ["s1", "s2", "t"],
        "inverse_pairs": [["s1", "t"], ["s2", "s2"]],
        "relators": ["s1 t", "s2 s2"],
    },
    "heisenberg": {
        "name": "heisenberg",
        "generators": ["x", "y", "z", "X", "Y", "Z"],
        "inverse_pairs": [["x", "X"], ["y", "Y"], ["z", "Z"]],
        "relators": ["x X", "y Y", "z Z", "X Y x y Z", "X Z x z", "Y Z y z"],
    },
    "square_octagon": {
        "name": "square_octagon",
        "generators": ["s1", "s2", "s3"],
        "inverse_pairs": [["s1", "s1"], ["s2", "s3"]],
        "relators": [
            "s1 s1",
            "s2 s3",
            "s2 s2 s2 s2",
            "s1 s2 s1 s2 s1 s2 s1 s2",
            "s1 s3 s1 s3 s1 s3 s1 s3",
        ],
    },
    "hexagonal": {
        "name": "hexagonal",
        "generators": ["s1", "s2", "s3"],
        "inverse_pairs": [["s1", "s1"], ["s2", "s3"]],
        "relators": ["s1 s1", "s2 s3", "s1 s2 s2 s1 s3 s3"],
    },
    "dihedral": {
        "name": "dihedral",
        "generators": ["s1", "s2"],
        "inverse_pairs": [["s1", "s1"], ["s2", "s2"]],
        "relators": ["s1 s1", "s2 s2"],
    },
    "higman": {
        "name": "higman",
        "generators": ["a", "b", "c", "d", "A", "B", "C", "D"],
        "inverse_pairs": [["a", "A"], ["b", "B"], ["c", "C"], ["d", "D"]],
        "relators": [
            "a A",
            "b B",
            "c C",
            "d D",
            "A b a B B",
            "B c b C C",
            "C d c D D",
            "D a d A A",
        ],
    },
    "sl2z": {
        "name": "sl2z",
        "generators": ["x", "y", "u", "v"],
        "inverse_pairs": [["x", "u"], ["y", "v"]],
        "relators": ["x u", "y v", "x x x x", "x x v v v"],
    },
    "lamplighter": {
        "name": "lamplighter",
        "generators": ["a", "t", "u"],
        "inverse_pairs": [["a", "a"], ["t", "u"]],
        "relators": ["a a", "t u"],
        "relator_families": [{"u0": {"a": 4}, "u1": {"t": 2, "u": 2}}],
    },
}


def preset_presentation(name: str) -> Presentation:
    key = {"dihedral_line": "dihedral"}.get(name, name)
    if key not in PRESENTATION_PRESETS:
        raise PresentationError(f"unknown presentation preset {name!r}")
    return parse_presentation(PRESENTATION_PRESETS[key])

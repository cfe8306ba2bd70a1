"""Finite group presentations and their letter-count linear algebra.

A presentation lists generator symbols (inverses are separate symbols,
possibly self-paired for involutions), plain relator words, and
optionally affine families of relators whose letter counts are
u0 + n*u1 for n >= 0. The coefficient matrix of letter counts decides,
through its rank and integer kernel, whether the word-length height
h(v) = sum of gamma over the letters of any word for v is well defined
on the whole group. `heights.verify` checks a chosen gamma on a ball of
a model's Cayley graph: it raises `HeightConflict` when a vertex gets
two heights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ._linalg import integer_kernel
from .graphs import model_name


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
    """The primitive integer kernel basis of a coefficient matrix C. Its
    length is the Betti number |S| - rank(C)."""

    vectors: Tuple[Tuple[int, ...], ...]
    symbols: Tuple[str, ...]

    def ghf(self) -> Optional[GroupHeightSpec]:
        """The first basis vector as a height, None for a trivial kernel."""
        if not self.vectors:
            return None
        return GroupHeightSpec(gamma=self.vectors[0], symbols=self.symbols)


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

    def listed(key: str) -> list:
        value = doc.get(key, [])
        if not isinstance(value, (list, tuple)):
            raise PresentationError(f"{key!r} must be a list")
        return value

    gens = tuple(listed("generators"))
    for g in gens:
        if not isinstance(g, str) or not g:
            raise PresentationError("generators must be non-empty strings")
    pairs = listed("inverse_pairs")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(s, str) for s in pair)):
            raise PresentationError(f"inverse pair must be two symbols: {pair!r}")
    relators = []
    for w in listed("relators"):
        if not isinstance(w, str):
            raise PresentationError("relator words must be strings of space-separated symbols")
        relators.append(tuple(w.split()))
    families = []
    gindex = {s: i for i, s in enumerate(gens)}
    for fam in listed("relator_families"):
        u0 = [0] * len(gens)
        u1 = [0] * len(gens)
        for key, vec in (("u0", u0), ("u1", u1)):
            counts = fam.get(key, {}) if isinstance(fam, dict) else None
            if not isinstance(counts, dict):
                raise PresentationError("a relator family maps 'u0' and 'u1' to symbol counts")
            for sym, cnt in counts.items():
                if sym not in gindex:
                    raise PresentationError(f"family count names unknown symbol {sym!r}")
                if not isinstance(cnt, int) or isinstance(cnt, bool) or cnt < 0:
                    raise PresentationError("family counts must be non-negative integers")
                vec[gindex[sym]] = cnt
        families.append(ParamRelatorFamily(tuple(u0), tuple(u1)))
    return Presentation(
        generators=gens,
        inverse_pairs=tuple(map(tuple, pairs)),
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


def integer_kernel_basis(c: CoefficientMatrix) -> KernelBasis:
    """The kernel of C, from one reduction; rank, Betti number and the
    chosen height are all read from it."""
    vectors = integer_kernel(c.rows, len(c.symbols))
    return KernelBasis(vectors=tuple(vectors), symbols=c.symbols)


def rank_exact(c: CoefficientMatrix) -> int:
    return len(c.symbols) - len(integer_kernel_basis(c).vectors)


def choose_ghf(p: Presentation) -> Optional[GroupHeightSpec]:
    """First primitive kernel basis vector, or None when the kernel is trivial."""
    return integer_kernel_basis(coefficient_matrix(p)).ghf()


def d_of_ghf(spec: GroupHeightSpec) -> int:
    """max |h(u) - h(v)| over the edges of the Cayley graph: max |gamma|."""
    return max(map(abs, spec.gamma))


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
    """The preset `name`, spelled as `graphs.resolve_model` spells models
    (ZD2, zd_2 and " zd2 " are zd2; dihedral_line is dihedral)."""
    key = model_name(name)
    if key not in PRESENTATION_PRESETS:
        raise PresentationError(f"unknown presentation preset {name!r}")
    return parse_presentation(PRESENTATION_PRESETS[key])

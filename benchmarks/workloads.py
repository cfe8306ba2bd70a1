"""Workload definitions for the sawlab benchmark.

Each workload is a closed loop with one client: the jobs of a pass run
back to back, each job being the argv of one `sawlab` command. The seed
permutes the order of the jobs and, on `ball_locality`, picks the family
sizes m and the radius bounds from the fixed ranges below. The program
sees only the argv that results. This module does not import sawlab, so
the set-up probe can time that import itself.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("walk_serial", "walk_pool", "ball_locality")

# (model, n) of the `bounds` jobs. Together they cover every kind of
# oracle vertex (int tuples, periodic-graph covers, words, frozensets,
# (level, word) pairs) and both height modes (`at` and `step`).
WALK_MODELS: Tuple[Tuple[str, int], ...] = (
    ("zd2", 12),
    ("zd3", 8),
    ("hexagonal", 16),
    ("heisenberg", 8),
    ("lamplighter", 16),
    ("grandparent", 6),
    ("tree3", 16),
    ("square_octagon", 14),
)

# The README's locality scan.
SCAN = ("locality", "--model", "zd2", "--family", "cylinder",
        "--m-list", "4,5,6,7,8,9", "--n-max", "10")

# Seeded ball_locality families. cylinder_m and ladder_dihedral_m are the
# same graph, so every radius up to the bound runs refinement, full
# backtracking and a witness; zd2 against cylinder_m turns negative after
# K. The ranges keep every ball below about 990 vertices, above which
# ball_iso's one-frame-per-vertex backtracking raises RecursionError, and
# keep the seeded jobs a small share of the pass, so that the pass time
# varies little from seed to seed.
ISO_M = range(6, 10)
ISO_BOUND = range(18, 23)
NEG_M = range(6, 10)
NEG_BOUND = range(8, 13)

# Self-isomorphism bounds: the largest radii whose balls stay below 990
# vertices with room to spare for the extra stack frames of a traced run.
SELF_ISO = (("hexagonal", 22), ("square_octagon", 22), ("tree3", 8),
            ("lamplighter", 9))
# verify radii: the check builds the radius+1 ball.
VERIFY = (("grandparent", 5), ("lamplighter", 9), ("heisenberg", 7),
          ("hexagonal", 25), ("zd3", 9))
HARMONIC = ("zd2", "dihedral_line", "hexagonal", "square_octagon")
GHF = ("dihedral", "heisenberg", "hexagonal", "higman", "lamplighter",
       "sl2z", "square_octagon", "tree3", "zd2", "zd3")

# Known-defect probes, run untimed once per run. Each is
# (name, argv, promise the program breaks today).
PROBES = (
    ("iso_recursion",
     ("ball-iso", "--a", "zd3", "--b", "zd3", "--bound", "10"),
     "exit code 0, 2, 3 or 4 (today an uncaught RecursionError)"),
    ("scan_partial",
     ("locality", "--m-list", "4,5", "--n-max", "10", "--budget", "2000",
      "--threads", "1"),
     "truncated tables exit 4 (today exit 0 without a partial flag)"),
)


def bounds_job(model: str, n: int, threads: int) -> Tuple[str, ...]:
    return ("bounds", "--model", model, "--n-max", str(n),
            "--threads", str(threads))


def _iso_job(a: str, b: str, bound: int) -> Tuple[str, ...]:
    return ("ball-iso", "--a", a, "--b", b, "--bound", str(bound))


def _family_jobs(rng: random.Random) -> List[Tuple[str, ...]]:
    m, bound = rng.choice(ISO_M), rng.choice(ISO_BOUND)
    neg_m, neg_bound = rng.choice(NEG_M), rng.choice(NEG_BOUND)
    return [_iso_job(f"cylinder{m}", f"ladder_dihedral{m}", bound),
            _iso_job("zd2", f"cylinder{neg_m}", neg_bound)]


def _fixed_jobs(workload: str) -> List[Tuple[str, ...]]:
    if workload == "walk_serial":
        return [bounds_job(m, n, 1) for m, n in WALK_MODELS]
    if workload == "walk_pool":
        return [bounds_job(m, n, 2) for m, n in WALK_MODELS] + [
            SCAN + ("--threads", "2")]
    if workload == "ball_locality":
        return (
            [_iso_job(g, g, b) for g, b in SELF_ISO]
            + [("verify", "--model", g, "--radius", str(r)) for g, r in VERIFY]
            + [("harmonic", "--model", g) for g in HARMONIC]
            + [("ghf", "--model", g) for g in GHF]
            + [SCAN + ("--threads", "1")]
        )
    raise ValueError(f"unknown workload {workload!r}; choices: {', '.join(WORKLOADS)}")


def jobs(workload: str, seed: int) -> List[Tuple[str, ...]]:
    """The workload's job argvs in the seed's order."""
    rng = random.Random(seed)
    out = _fixed_jobs(workload)
    if workload == "ball_locality":
        out += _family_jobs(rng)
    rng.shuffle(out)
    return out


def all_jobs(workload: str) -> List[Tuple[str, ...]]:
    """Every argv any seed can give the workload (for building references)."""
    out = _fixed_jobs(workload)
    if workload == "ball_locality":
        out += [_iso_job(f"cylinder{m}", f"ladder_dihedral{m}", b)
                for m in ISO_M for b in ISO_BOUND]
        out += [_iso_job("zd2", f"cylinder{m}", b) for m in NEG_M for b in NEG_BOUND]
    return out


def setup_models(workload: str, seed: int) -> List[Tuple[str, bool]]:
    """(model, resolve its default height too) for the set-up probe: the
    models the workload's jobs name, with heights where a job uses one."""
    models: Dict[str, bool] = {}
    for argv in jobs(workload, seed):
        command = argv[0]
        if command in ("bounds", "verify"):
            models[argv[argv.index("--model") + 1]] = True
        elif command == "ball-iso":
            for flag in ("--a", "--b"):
                models.setdefault(argv[argv.index(flag) + 1], False)
        elif command == "locality":
            models.setdefault("zd2", False)
            for m in argv[argv.index("--m-list") + 1].split(","):
                models.setdefault(f"cylinder{m}", False)
    return sorted(models.items())

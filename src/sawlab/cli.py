"""Command-line front end.

Subcommands wrap the library modules and write reproducible artifacts:
identical inputs and configuration produce byte-identical files, except
for an optional timestamp field in JSON output (suppressed with
--no-timestamp; CSV output never carries one).

Exit codes: 0 success, 2 input error, 3 negative mathematical verdict,
4 resource budget exceeded. The SAWLAB_BUDGET environment variable
overrides the default node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import graphs, heights, locality, presentations, saw
from .graphs import BudgetExceeded, GraphError
from .heights import HeightError, HeightFunction, RepairExhausted
from .presentations import PresentationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4


@dataclass
class RunConfig:
    command: str
    model: Optional[str] = None
    input_path: Optional[str] = None
    n_max: Optional[int] = None
    radius: int = 4
    bound: int = 6
    precision: int = 10
    threads: int = 1
    budget: Optional[int] = None
    output: Optional[str] = None
    format: str = "csv"
    no_timestamp: bool = False


def _timestamp(cfg: RunConfig) -> Optional[str]:
    if cfg.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sawlab-tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        _atomic_write(cfg.output, text)
    else:
        sys.stdout.write(text)


def _default_n_max(g) -> int:
    return 14 if g.degree_bound() <= 3 else 12


# ---------------------------------------------------------------------------
# Height resolution
# ---------------------------------------------------------------------------

def resolve_height(
    g, name: Optional[str], model: Optional[str] = None
) -> HeightFunction:
    """Height `name` (None or "auto": the model's default) on oracle `g`,
    by `heights.resolve_height`.

    Everything is derived from `g`, so every accepted spelling of a model
    gets its canonical model's height; `model`, the spelling itself, is
    accepted for three-argument callers and not used.
    """
    return heights.resolve_height(g, name)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ghf(cfg: RunConfig, args) -> int:
    if cfg.input_path:
        with open(cfg.input_path) as handle:
            pres = presentations.parse_presentation(handle.read())
        label = cfg.input_path
    elif cfg.model:
        pres = presentations.preset_presentation(cfg.model)
        label = cfg.model
    else:
        raise PresentationError("ghf needs --model or --input")
    c = presentations.coefficient_matrix(pres)
    rank = presentations.rank_exact(c)
    basis = presentations.integer_kernel_basis(c)
    spec = presentations.choose_ghf(pres)
    exists = spec is not None
    doc = {
        "presentation": label,
        "generators": len(pres.generators),
        "relators": len(c.rows),
        "rank": rank,
        "betti": len(pres.generators) - rank,
        "exists": exists,
        "symbols": list(c.symbols),
        "kernel_basis": [list(v) for v in basis.vectors],
        "gamma": list(spec.gamma) if exists else None,
        "d": presentations.d_of_ghf(spec) if exists else None,
    }
    lines = [
        f"presentation: {label}",
        f"|S| = {doc['generators']}, |R| = {doc['relators']} "
        f"(coefficient rows: {len(c.rows)})",
        f"rank(C) = {rank}, Betti = {doc['betti']}",
    ]
    if exists:
        gamma_str = ", ".join(
            f"{s}:{v}" for s, v in zip(c.symbols, spec.gamma)
        )
        lines.append(f"height exists: gamma = ({gamma_str}), d = {doc['d']}")
    else:
        lines.append("no group height function (rank(C) = |S|)")
    print("\n".join(lines))
    if cfg.output:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _atomic_write(cfg.output, text)
    return EXIT_OK if exists else EXIT_NEGATIVE


def _counting_setup(cfg: RunConfig):
    if not cfg.model:
        raise GraphError("missing --model")
    g = graphs.resolve_model(cfg.model)
    n_max = cfg.n_max if cfg.n_max is not None else _default_n_max(g)
    return g, n_max


def cmd_count(cfg: RunConfig, args) -> int:
    g, n_max = _counting_setup(cfg)
    table = saw.count_saws(g, n_max, threads=cfg.threads, budget=cfg.budget)
    if cfg.format == "json":
        _emit(cfg, saw.table_to_json(table, _timestamp(cfg)))
    else:
        _emit(cfg, table.to_csv())
    return EXIT_BUDGET if table.partial else EXIT_OK


def cmd_bridges(cfg: RunConfig, args) -> int:
    g, n_max = _counting_setup(cfg)
    h = resolve_height(g, args.height)
    table = saw.count_bridges(g, h, n_max, threads=cfg.threads, budget=cfg.budget)
    if cfg.format == "json":
        _emit(cfg, saw.table_to_json(table, _timestamp(cfg)))
    else:
        _emit(cfg, table.to_csv())
    return EXIT_BUDGET if table.partial else EXIT_OK


def cmd_bounds(cfg: RunConfig, args) -> int:
    g, n_max = _counting_setup(cfg)
    h = resolve_height(g, args.height)
    sigma = saw.count_saws(g, n_max, threads=cfg.threads, budget=cfg.budget)
    bridge = saw.count_bridges(g, h, n_max, threads=cfg.threads, budget=cfg.budget)
    report = saw.mu_bounds(sigma, bridge, precision=cfg.precision)
    if cfg.format == "json":
        _emit(cfg, saw.bounds_to_json(report, _timestamp(cfg)))
    else:
        _emit(cfg, report.to_csv())
    if cfg.output:
        print(
            f"best lower {report.best_lower} (n={report.best_lower_n}), "
            f"best upper {report.best_upper} (n={report.best_upper_n})"
        )
    return EXIT_BUDGET if sigma.partial or bridge.partial else EXIT_OK


def cmd_harmonic(cfg: RunConfig, args) -> int:
    if cfg.input_path:
        with open(cfg.input_path) as handle:
            doc = json.load(handle)
        pg = graphs.periodic_graph_from_document(doc)
        label = cfg.input_path
    elif cfg.model:
        pg = graphs.periodic_preset(cfg.model)
        label = cfg.model
    else:
        raise GraphError("harmonic needs --model or --input")
    basis = heights.solution_space(pg)
    repaired = heights.increase_repair(pg)
    doc = {
        "periodic_graph": label,
        "orbits": pg.orbit_count,
        "dim": pg.dim,
        "solutions": [
            {
                "lambda": [str(q) for q in s.lam],
                "f": [str(q) for q in s.f],
            }
            for s in basis
        ],
        "repaired": heights.repair_document(pg, repaired),
    }
    lines = [f"periodic graph: {label} ({pg.orbit_count} orbits, dim {pg.dim})"]
    for s in basis:
        lam = ", ".join(str(q) for q in s.lam)
        f = ", ".join(str(q) for q in s.f)
        lines.append(f"solution: lambda = ({lam}), f = ({f})")
    lines.append(
        f"repaired height: lambda = {list(repaired.lam)}, f = {list(repaired.f)}, "
        f"scale = {repaired.scale}"
    )
    print("\n".join(lines))
    if cfg.output:
        _atomic_write(cfg.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    if not cfg.model:
        raise GraphError("missing --model")
    g = graphs.resolve_model(cfg.model)
    h = resolve_height(g, args.height)
    axioms = heights.verify_height_axioms(g, h, cfg.radius)
    harmonic = heights.verify_harmonic(g, h, cfg.radius)
    d = heights.compute_d(g, h, max(2, min(cfg.radius, 4)))
    print(f"model {cfg.model}, height {h.name}, radius {cfg.radius}")
    print(
        f"axioms: {'pass' if axioms.ok else 'FAIL'} "
        f"({axioms.increase_checked} vertices; invariance: {axioms.invariance_note})"
    )
    for failure in axioms.failures[:10]:
        print(f"  {failure}")
    if harmonic.uniform_defect is not None:
        print(
            f"harmonic defect: uniform {harmonic.uniform_defect} "
            f"over {harmonic.vertices_checked} vertices"
        )
    else:
        print(
            f"harmonic defects: {len(harmonic.defect_values)} distinct values, "
            f"worst {harmonic.worst}"
        )
    print(f"d = {d}")
    if cfg.output:
        doc = {
            "model": cfg.model,
            "height": h.name,
            "radius": cfg.radius,
            "axioms_ok": axioms.ok,
            "failures": axioms.failures,
            "harmonic_all_zero": harmonic.all_zero,
            "uniform_defect": (
                str(harmonic.uniform_defect)
                if harmonic.uniform_defect is not None
                else None
            ),
            "d": d,
        }
        ts = _timestamp(cfg)
        if ts:
            doc["generated_at"] = ts
        _atomic_write(cfg.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if axioms.ok else EXIT_NEGATIVE


def cmd_ball_iso(cfg: RunConfig, args) -> int:
    g_a = graphs.resolve_model(args.a)
    g_b = graphs.resolve_model(args.b)
    max_vertices = cfg.budget if cfg.budget is not None else 2_000_000
    result = locality.iso_radius(g_a, g_b, cfg.bound, max_vertices=max_vertices)
    print(f"K({args.a}, {args.b}) = {result.display()} (bound {cfg.bound})")
    for k in sorted(result.verdicts):
        print(f"  radius {k}: {'isomorphic' if result.verdicts[k] else 'different'}")
    if cfg.output:
        doc = {
            "a": args.a,
            "b": args.b,
            "bound": cfg.bound,
            "K": result.k,
            "K_display": result.display(),
            "verdicts": {str(k): v for k, v in result.verdicts.items()},
            "witness": result.witness,
        }
        ts = _timestamp(cfg)
        if ts:
            doc["generated_at"] = ts
        _atomic_write(cfg.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if result.budget_hit is False else EXIT_BUDGET


def cmd_locality(cfg: RunConfig, args) -> int:
    base = graphs.resolve_model(cfg.model or "zd2")
    m_list = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    if not m_list:
        raise GraphError("empty --m-list")
    n_max = cfg.n_max if cfg.n_max is not None else 10
    presentation_name = (
        cfg.model
        if cfg.model in presentations.PRESENTATION_PRESETS
        else ("zd2" if base.name == "zd2" else None)
    )
    report = locality.locality_scan(
        base,
        args.family,
        n_max,
        m_list,
        bound=cfg.bound,
        threads=cfg.threads,
        precision=cfg.precision,
        budget=cfg.budget,
        presentation_name=presentation_name,
    )
    if cfg.format == "json":
        _emit(cfg, locality.scan_to_json(report, _timestamp(cfg)))
    else:
        _emit(cfg, report.to_csv())
    return EXIT_BUDGET if report.partial else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawlab",
        description=(
            "Exact self-avoiding-walk and height-function laboratory on "
            "Cayley and periodic graphs."
        ),
    )
    parser.add_argument(
        "--preset-list",
        action="store_true",
        help="list presentation presets, periodic-graph presets, and models",
    )
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="catalog model or preset name")
    common.add_argument("--input", dest="input_path", help="input document path")
    common.add_argument("--n-max", dest="n_max", type=int, default=None)
    common.add_argument("--radius", type=int, default=4)
    common.add_argument("--bound", type=int, default=6)
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--precision", type=int, default=10)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None)
    common.add_argument("--no-timestamp", dest="no_timestamp", action="store_true")

    sub.add_parser("ghf", parents=[common], help="group height function report")

    p_count = sub.add_parser("count", parents=[common], help="sigma_n table")
    p_bridges = sub.add_parser("bridges", parents=[common], help="b_n table")
    p_bounds = sub.add_parser("bounds", parents=[common], help="mu bound sandwich")
    for p in (p_bridges, p_bounds):
        p.add_argument("--height", default=None, help="x|y|identity|level|ghf|repaired")
    p_count.add_argument("--height", default=None, help=argparse.SUPPRESS)

    p_harm = sub.add_parser(
        "harmonic", parents=[common], help="harmonic solutions and repair"
    )
    p_harm.add_argument("--pg", dest="input_path_alias", default=None,
                        help="alias for --input")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="height axioms and harmonic defects"
    )
    p_verify.add_argument("--height", default=None)

    p_iso = sub.add_parser("ball-iso", parents=[common], help="locality radius K")
    p_iso.add_argument("--a", required=True)
    p_iso.add_argument("--b", required=True)

    p_loc = sub.add_parser("locality", parents=[common], help="family scan")
    p_loc.add_argument("--family", default="cylinder_zd")
    p_loc.add_argument("--m-list", dest="m_list", default="4,5,6,7,8,9")

    return parser


_PRESET_DOC = """presentation presets:
  {pres}
periodic-graph presets (usable as --pg documents):
{pg}
catalog models:
  zd1 zd2 zd3 tree3 heisenberg lamplighter grandparent dihedral_line
  hexagonal square_octagon cylinder_zd<m> (alias cylinder<m>)
  ladder_dihedral<m>
"""


def print_presets() -> None:
    pg_lines = "\n".join(
        f"  {name}: {json.dumps(graphs.periodic_preset(name).to_document())}"
        for name in sorted(graphs.PERIODIC_PRESETS)
    )
    print(
        _PRESET_DOC.format(
            pres=" ".join(sorted(presentations.PRESENTATION_PRESETS)),
            pg=pg_lines,
        ),
        end="",
    )


_COMMANDS = {
    "ghf": cmd_ghf,
    "count": cmd_count,
    "bridges": cmd_bridges,
    "bounds": cmd_bounds,
    "harmonic": cmd_harmonic,
    "verify": cmd_verify,
    "ball-iso": cmd_ball_iso,
    "locality": cmd_locality,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.preset_list:
        print_presets()
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT

    input_path = getattr(args, "input_path", None) or getattr(
        args, "input_path_alias", None
    )
    cfg = RunConfig(
        command=args.command,
        model=getattr(args, "model", None),
        input_path=input_path,
        n_max=getattr(args, "n_max", None),
        radius=getattr(args, "radius", 4),
        bound=getattr(args, "bound", 6),
        precision=getattr(args, "precision", 10),
        threads=getattr(args, "threads", 1),
        budget=getattr(args, "budget", None),
        output=getattr(args, "output", None),
        format=getattr(args, "format", "csv"),
        no_timestamp=getattr(args, "no_timestamp", False),
    )
    if cfg.n_max is not None and cfg.n_max < 0:
        print("error: --n-max must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    if cfg.precision < 1 or cfg.threads < 1:
        print("error: --precision and --threads must be >= 1", file=sys.stderr)
        return EXIT_INPUT

    try:
        return _COMMANDS[args.command](cfg, args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RepairExhausted as exc:
        print(f"no repaired height: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (
        PresentationError,
        GraphError,
        HeightError,
        json.JSONDecodeError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands wrap the library modules and write reproducible artifacts:
identical inputs and options produce byte-identical files. Each one
declares only the options it reads (`_COMMANDS`, from `_OPTIONS`); any
other option, or a count or budget out of range, is a usage error.

- `count`, `bridges`, `bounds` and `locality` write their table in
  `--format` (CSV or JSON) to `--output`, or to stdout without it.
- `ghf`, `harmonic`, `verify` and `ball-iso` print a text report and
  write a JSON artifact only with `--output`; they reject `--format csv`.
  A JSON artifact carries a `generated_at` timestamp unless
  `--no-timestamp` is given, but `ghf` and `harmonic` never write one.

Exit codes: 0 success, 2 input error, 3 negative mathematical verdict,
4 resource budget exceeded. The SAWLAB_BUDGET environment variable
overrides the default node budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import Optional

from . import graphs, heights, locality, presentations, saw
from ._linalg import integer_kernel
from .graphs import BudgetExceeded, GraphError
from .heights import HeightError, HeightFunction, RepairExhausted
from .presentations import PresentationError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4


def _timestamp(args) -> Optional[str]:
    if args.no_timestamp:
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


def _emit(args, report) -> None:
    """Write a CountTable, BoundsReport or ScanReport in `--format` to
    `--output`, or to stdout without it."""
    if args.format == "json":
        text = saw.render_json(report.to_json_dict(), _timestamp(args))
    else:
        text = report.to_csv()
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _save(args, doc: dict, timestamp: Optional[str] = None) -> None:
    """Write the JSON artifact `doc` to `--output`, if given."""
    if args.output:
        _atomic_write(args.output, saw.render_json(doc, timestamp))


def _ball_budget(args) -> int:
    """`--budget` as the vertex cap of the balls `verify` and `ball-iso` build."""
    return args.budget if args.budget is not None else graphs.DEFAULT_BALL_BUDGET


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


def cmd_ghf(args) -> int:
    if args.input_path is not None:
        with open(args.input_path) as handle:
            pres = presentations.parse_presentation(handle.read())
        label = args.input_path
    else:
        pres = presentations.preset_presentation(args.model)
        label = args.model
    rows = presentations.coefficient_matrix(pres)
    kernel = integer_kernel(rows, len(pres.generators))
    gamma = presentations.choose_ghf(kernel)
    exists = gamma is not None
    rank = len(pres.generators) - len(kernel)
    doc = {
        "presentation": label,
        "generators": len(pres.generators),
        "relators": len(rows),  # coefficient rows, as the golden artifacts hold
        "rank": rank,
        "betti": len(kernel),
        "exists": exists,
        "symbols": list(pres.generators),
        "kernel_basis": [list(v) for v in kernel],
        "gamma": list(gamma) if exists else None,
        "d": max(map(abs, gamma)) if exists else None,
    }
    lines = [
        f"presentation: {label}",
        f"|S| = {doc['generators']}, |R| = {len(pres.relators)} "
        f"(coefficient rows: {len(rows)})",
        f"rank(C) = {rank}, Betti = {doc['betti']}",
    ]
    if exists:
        gamma_str = ", ".join(f"{s}:{v}" for s, v in zip(pres.generators, gamma))
        lines.append(f"height exists: gamma = ({gamma_str}), d = {doc['d']}")
    else:
        lines.append("no group height function (rank(C) = |S|)")
    print("\n".join(lines))
    _save(args, doc)
    return EXIT_OK if exists else EXIT_NEGATIVE


def _counting_setup(args):
    g = graphs.resolve_model(args.model)
    if args.n_max is None:
        return g, 14 if g.degree_bound() <= 3 else 12
    return g, args.n_max


def cmd_count(args) -> int:
    g, n_max = _counting_setup(args)
    table = saw.count_saws(g, n_max, threads=args.threads, budget=args.budget)
    _emit(args, table)
    return EXIT_BUDGET if table.partial else EXIT_OK


def cmd_bridges(args) -> int:
    g, n_max = _counting_setup(args)
    h = resolve_height(g, args.height)
    table = saw.count_bridges(g, h, n_max, threads=args.threads, budget=args.budget)
    _emit(args, table)
    return EXIT_BUDGET if table.partial else EXIT_OK


def cmd_bounds(args) -> int:
    g, n_max = _counting_setup(args)
    h = resolve_height(g, args.height)
    sigma = saw.count_saws(g, n_max, threads=args.threads, budget=args.budget)
    bridge = saw.count_bridges(g, h, n_max, threads=args.threads, budget=args.budget)
    report = saw.mu_bounds(sigma, bridge, precision=args.precision)
    _emit(args, report)
    if args.output:
        print(
            f"best lower {report.best_lower} (n={report.best_lower_n}), "
            f"best upper {report.best_upper} (n={report.best_upper_n})"
        )
    return EXIT_BUDGET if sigma.partial or bridge.partial else EXIT_OK


def cmd_harmonic(args) -> int:
    if args.input_path is not None:
        with open(args.input_path) as handle:
            doc = json.load(handle)
        pg = graphs.periodic_graph_from_document(doc)
        label = args.input_path
    else:
        g = graphs.resolve_model(args.model)
        if not isinstance(g, graphs.PGOracle):
            raise GraphError(f"model {g.name} is not a periodic graph")
        pg = g.pg
        label = args.model
    basis = heights.solution_space(pg)
    repaired = heights._repair(pg, basis)
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
    _save(args, doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = graphs.resolve_model(args.model)
    h = resolve_height(g, args.height)
    check = heights.verify(g, h, args.radius, _ball_budget(args))
    uniform = check.uniform_defect
    print(f"model {args.model}, height {h.name}, radius {args.radius}")
    print(
        f"axioms: {'pass' if check.ok else 'FAIL'} "
        f"({check.checked} vertices; invariance: {check.invariance_note})"
    )
    for failure in check.failures[:10]:
        print(f"  {failure}")
    if uniform is not None:
        print(f"harmonic defect: uniform {uniform} over {check.checked} vertices")
    else:
        vertex, defect = check.worst
        print(f"harmonic defects: {len(check.defect_values)} distinct values, "
              f"worst {defect} at {vertex}")
    print(f"d = {check.d}")
    doc = {
        "model": args.model,
        "height": h.name,
        "radius": args.radius,
        "axioms_ok": check.ok,
        "failures": check.failures,
        "harmonic_all_zero": check.all_zero,
        "uniform_defect": None if uniform is None else str(uniform),
        "d": check.d,
    }
    _save(args, doc, _timestamp(args))
    return EXIT_OK if check.ok else EXIT_NEGATIVE


def cmd_ball_iso(args) -> int:
    g_a = graphs.resolve_model(args.a)
    g_b = graphs.resolve_model(args.b)
    result = locality.iso_radius(g_a, g_b, args.bound, max_vertices=_ball_budget(args))
    print(f"K({args.a}, {args.b}) = {result.display()} (bound {args.bound})")
    for k in sorted(result.verdicts):
        print(f"  radius {k}: {'isomorphic' if result.verdicts[k] else 'different'}")
    doc = {
        "a": args.a,
        "b": args.b,
        "bound": args.bound,
        "K": result.k,
        "K_display": result.display(),
        "verdicts": {str(k): v for k, v in result.verdicts.items()},
        "witness": result.witness,
    }
    _save(args, doc, _timestamp(args))
    return EXIT_BUDGET if result.budget_hit else EXIT_OK


def cmd_locality(args) -> int:
    base = graphs.resolve_model(args.model)
    m_list = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    if not m_list:
        raise GraphError("empty --m-list")
    n_max = args.n_max if args.n_max is not None else 10
    report = locality.locality_scan(
        base,
        args.family,
        n_max,
        m_list,
        bound=args.bound,
        threads=args.threads,
        precision=args.precision,
        budget=args.budget,
    )
    _emit(args, report)
    return EXIT_BUDGET if report.partial else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """An argparse `type`: an int, and a usage error (exit 2) below `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


# Every option, defined once: its flag and its add_argument keywords (the
# dest is the flag's unless given). A subcommand declares the ones it reads.
_OPTIONS = {
    "--format": dict(choices=("csv", "json"), help="csv (the default) or json; "
                     "ghf, harmonic, verify and ball-iso write JSON only"),
    "--output": dict(help="artifact path (default: stdout for the tables)"),
    "--no-timestamp": dict(
        action="store_true",
        help="leave generated_at out of the JSON artifact "
        "(ghf and harmonic never write it, so they ignore this)",
    ),
    "--threads": dict(
        type=_at_least(1), default=os.cpu_count() or 1,
        help="worker processes of the walk counts, at most the CPU count "
        "(default: the CPU count); "
        "ghf, harmonic, verify and ball-iso ignore it",
    ),
    "--model": dict(help="catalog model or preset name"),
    "--input": dict(dest="input_path", help="input document path"),
    "--pg": dict(dest="input_path", help="another spelling of --input"),
    "--n-max": dict(type=_at_least(0), help="longest walk (default: 14 on degree <= 3, "
                    "else 12; locality 10)"),
    "--height": dict(help="x|y|identity|level|ghf|repaired (default: the model's)"),
    "--budget": dict(
        type=_at_least(1),
        help="node budget of a count, or vertex cap of a ball in verify and ball-iso",
    ),
    "--precision": dict(type=_at_least(1), default=10, help="digits of the root bounds"),
    "--radius": dict(type=_at_least(0), default=4, help="radius of the checked ball"),
    "--bound": dict(type=_at_least(0), default=6, help="largest radius compared"),
    "--a": dict(required=True, help="first model"),
    "--b": dict(required=True, help="second model"),
    "--family": dict(default="cylinder_zd", help="quotient family of the scan"),
    "--m-list": dict(default="4,5,6,7,8,9", help="comma-separated family members"),
}


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
    shared = argparse.ArgumentParser(add_help=False)
    for flag in ("--format", "--output", "--no-timestamp", "--threads"):
        shared.add_argument(flag, **_OPTIONS[flag])
    for name, (_, help, flags, model) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=help, allow_abbrev=False)
        if "--input" in flags.split():  # exactly one of --model and --input (or --pg)
            p = p.add_mutually_exclusive_group(required=True)
        for flag in flags.split():
            keywords = model if flag == "--model" else {}
            p.add_argument(flag, **{**_OPTIONS[flag], **keywords})
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: argparse keeps no
    state between `parse_args` calls, and each call reads only its argv."""
    return build_parser()


def print_presets() -> None:
    """Print the presentation presets, then each catalog family with its
    parameter and aliases, then the --pg document of each periodic
    model that takes no parameter."""
    lines = [
        "presentation presets:",
        "  " + " ".join(sorted(presentations.PRESENTATION_PRESETS)),
        "catalog models (--model):",
    ]
    documents = []
    for family, (build, param) in graphs.MODELS.items():
        suffix = f"<{param}>" if param else ""
        spellings = ", ".join(
            alias + suffix for alias, to in graphs.MODEL_ALIASES.items() if to == family)
        lines.append(f"  {family}{suffix}" + (f" (alias {spellings})" if spellings else ""))
        g = None if param else build()
        if isinstance(g, graphs.PGOracle):
            documents.append(f"  {family}: {json.dumps(g.pg.to_document())}")
    lines.append("periodic-graph documents (usable as --pg documents):")
    print("\n".join(lines + documents))


# Each subcommand: its function, its help, the options it declares after
# the shared four, and the keywords its --model takes.
_REQUIRED = {"required": True}
_COMMANDS = {
    "ghf": (cmd_ghf, "group height function report", "--model --input", {}),
    "count": (cmd_count, "sigma_n table", "--model --n-max --budget", _REQUIRED),
    "bridges": (cmd_bridges, "b_n table", "--model --n-max --budget --height", _REQUIRED),
    "bounds": (cmd_bounds, "mu bound sandwich",
               "--model --n-max --budget --height --precision", _REQUIRED),
    "harmonic": (cmd_harmonic, "harmonic solutions and repair", "--model --input --pg",
                 {"help": "any periodic catalog model (see --preset-list)"}),
    "verify": (cmd_verify, "height axioms and harmonic defects",
               "--model --height --radius --budget", _REQUIRED),
    "ball-iso": (cmd_ball_iso, "locality radius K", "--a --b --bound --budget", {}),
    "locality": (cmd_locality, "family scan", "--model --family --m-list --n-max "
                 "--bound --budget --precision",
                 {"default": "zd2", "help": "base model (default: zd2)"}),
}


# Commands whose artifact has no CSV form.
_JSON_ONLY = ("ghf", "harmonic", "verify", "ball-iso")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.preset_list:
        print_presets()
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    if args.format == "csv" and args.command in _JSON_ONLY:
        print(f"error: {args.command} writes JSON only; --format csv is not supported",
              file=sys.stderr)
        return EXIT_INPUT

    try:
        return _COMMANDS[args.command][0](args)
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

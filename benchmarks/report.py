"""Run the benchmark over several seeds, print every metric, compare runs.

From the repository root:

    python3 benchmarks/report.py run --out DIR [--runs 10] [--first-seed 1]
            [--workload W ...] [--trace 0|1]
    python3 benchmarks/report.py show DIR
    python3 benchmarks/report.py compare BASE_DIR CHANGE_DIR
    python3 benchmarks/report.py pairs --base PATH --change PATH --out DIR [--runs 10]

`run` runs this checkout's benchmark once per seed and workload, appends each result to DIR/<workload>.jsonl and then
does `show`. `show` prints every metric by name and unit with its median,
quartiles and spread (quartile distance over median) against the bound
in BENCHMARK.json, and whether every output was correct. `compare` holds
two result sets against each other, one row per workload and metric, by
the rule below. `pairs` runs the base and the change checkouts seed by
seed, alternating which side runs first, then compares them.

Rule, for a metric whose better direction is given in BENCHMARK.json:
a gain needs the change to win at least 9 in 10 seed-paired runs (ties
count for neither side) and the medians to differ by more than the
base's quartile distance. A regression is a change median worse than the
base median by more than the bound. When the base spread exceeds the
bound the row is "unresolved", unless every change run beats every base
run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900, check=True)
    sys.stderr.write(done.stderr)
    return {"seed": seed, "trace": trace,
            "result": json.loads(done.stdout.strip().splitlines()[-1])}


def append(out: Path, workload: str, record: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload}.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")


def load(out: Path) -> Dict[str, List[dict]]:
    sets = {}
    for workload in WORKLOADS:
        path = out / f"{workload}.jsonl"
        if path.is_file():
            sets[workload] = [json.loads(line) for line in path.read_text().splitlines()]
    return sets


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def metric_values(records: List[dict]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def show(out: Path) -> None:
    for workload, records in load(out).items():
        bad = [r for r in records if not r["result"]["correct"]]
        attempted = sum(r["result"]["attempted"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        print(f"{workload}: {len(records)} runs, {attempted} job executions, "
              f"{failed} failed, {len(bad)} runs with wrong outputs")
        units = {name: m["unit"] for r in records for name, m in r["result"]["metrics"].items()}
        for name, values in metric_values(records).items():
            q1, median, q3 = quartiles(values)
            line = (f"  {name:26s} {units[name]:6s} n={len(values):<3d} median {median:<12.6g}"
                    f" q1 {q1:<12.6g} q3 {q3:<12.6g}")
            if name in BOUNDS:
                s, bound = spread(values), BOUNDS[name]
                state = ("steady" if s < bound / 3 else
                         "within bound" if s <= bound else "SPREAD OVER BOUND")
                line += f" spread {s:.4f} bound {bound} {state}"
            print(line)


def better(name: str, a: float, b: float) -> bool:
    """Is a better than b?"""
    return a < b if BETTER[name] == "lower" else a > b


def compare(base_dir: Path, change_dir: Path) -> None:
    base_sets, change_sets = load(base_dir), load(change_dir)
    print(f"{'workload':14s} {'metric':13s} {'won':>6s}  {'base median [q1, q3]':38s} "
          f"{'change median [q1, q3]':38s} verdict")
    for workload in WORKLOADS:
        if workload not in base_sets or workload not in change_sets:
            continue
        base = {r["seed"]: r for r in base_sets[workload] if r["trace"] == 0}
        change = {r["seed"]: r for r in change_sets[workload] if r["trace"] == 0}
        seeds = sorted(set(base) & set(change))
        if not seeds:
            print(f"{workload:14s} no seed run on both sides")
            continue
        for name, bound in BOUNDS.items():
            b = [base[s]["result"]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["result"]["metrics"][name]["value"] for s in seeds]
            wins = sum(1 for x, y in zip(c, b) if better(name, x, y))
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            if (wins >= 0.9 * len(seeds) and better(name, cmed, bmed)
                    and abs(cmed - bmed) > bq3 - bq1):
                verdict = "gain"
            elif spread(b) > bound:
                every = all(better(name, x, y) for x in c for y in b)
                verdict = "better in every run" if every else "unresolved"
            elif better(name, bmed * (1 + bound) if BETTER[name] == "lower"
                        else bmed * (1 - bound), cmed):
                verdict = "REGRESSION"
            else:
                verdict = "no regression"
            print(f"{workload:14s} {name:13s} {wins:>3d}/{len(seeds):<2d}  "
                  f"{f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':38s} "
                  f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':38s} {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--out", type=Path, required=True)
    p_pairs = sub.add_parser("pairs")
    p_pairs.add_argument("--base", type=Path, required=True)
    p_pairs.add_argument("--change", type=Path, required=True)
    p_pairs.add_argument("--out", type=Path, required=True)
    for p in (p_run, p_pairs):
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--workload", action="append", choices=WORKLOADS)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_show = sub.add_parser("show")
    p_show.add_argument("dir", type=Path)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base", type=Path)
    p_cmp.add_argument("change", type=Path)
    args = parser.parse_args()

    if args.command == "show":
        show(args.dir)
    elif args.command == "compare":
        compare(args.base, args.change)
    else:
        for workload in args.workload or WORKLOADS:
            for i in range(args.runs):
                seed = args.first_seed + i
                if args.command == "run":
                    append(args.out, workload, run_once(ROOT, workload, seed, args.trace))
                    continue
                sides = [("base", args.base), ("change", args.change)]
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    append(args.out / side, workload, run_once(checkout, workload, seed, args.trace))
        if args.command == "run":
            show(args.out)
        else:
            compare(args.out / "base", args.out / "change")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""sawlab benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 benchmarks/run.py --workload walk_serial --seed 1 --seconds 40 --trace 0

The workload's jobs (see workloads.py) are `sawlab` argvs passed to
`sawlab.cli.main` in this process, back to back, pass after pass, for
about --seconds seconds. Every job writes a JSON artifact that is checked
against the reference outputs in refs/ after each pass. Two known-defect
probes run once, untimed, after the passes.

--trace 0 reports the end-to-end metrics:
  cpu_s         median CPU time (user + system) of one pass over the jobs,
                summed over this process and its pool workers (set-up
                excluded)
  setup_s       median CPU time, over fresh processes (one before each
                pass, and at least 15), of importing sawlab and resolving
                the workload's models and their heights
  peak_rss_mb   peak RSS of this process over the passes
  failed_ratio  failed operations / operations, where the operations are
                the workload's distinct jobs plus the probes, and a job
                fails if any execution of it raised, exited with an
                unexpected code or wrote an artifact unlike its reference
--trace 1 runs untraced passes for half the time, then traced passes
(tracing.py) for the other half, and reports the per-layer metrics: the
median over traced passes, plus wall_s (median wall-clock time of an
untraced pass), trace_overhead_s (traced minus untraced cpu_s) and
saw.pool_peak_rss_mb (peak RSS of the pool workers). The spans go to
.bench_out/trace-<workload>-seed<seed>.jsonl.

The timed metrics are CPU times: on a shared virtual machine the host
steals CPU time, and pass wall time follows that steal time (the steal
column of /proc/stat), while the CPU time of the same pass varies far
less (benchmarks/README.md has the figures).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count the timed job
executions. A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
OUT_FLAGS = ("--format", "json", "--no-timestamp")
SETUP_SAMPLES = 15  # at least; one more per pass if there are more passes

# Spot values from the OEIS: (model, n) -> sigma_n.
OEIS_SIGMA = {
    ("zd2", 12): 324932,        # A001411
    ("zd3", 8): 387966,         # A001412
    ("hexagonal", 16): 56268,   # A001668
}


def load_cli():
    """Import sawlab.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "sawlab" / "__init__.py").is_file():
        sys.exit(f"error: no sawlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sawlab
    from sawlab import cli

    if Path(sawlab.__file__).resolve().parent != SRC / "sawlab":
        sys.exit(f"error: imported sawlab from {sawlab.__file__}, not {SRC}")
    return cli


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and of its children that
    have been waited for, which include every pool worker once its pool
    has shut down."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def job_key(argv: Sequence[str]) -> str:
    """Reference key of a job: its argv without --threads, because the
    artifact must not depend on the thread count."""
    out = list(argv)
    if "--threads" in out:
        i = out.index("--threads")
        del out[i:i + 2]
    return " ".join(out)


def unbudgeted(argv: Sequence[str]) -> Tuple[str, ...]:
    out = list(argv)
    i = out.index("--budget")
    del out[i:i + 2]
    return tuple(out)


def run_job(main, argv: Sequence[str], out_path: Path):
    """Exit code of one job, or 'raised <type>' if it raised."""
    full = [*argv, *OUT_FLAGS, "--output", str(out_path)]
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(full)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a failed job is a result, not the end of the run
        return f"raised {type(exc).__name__}"


class References:
    def __init__(self) -> None:
        self.golden = json.loads((HERE / "refs" / "golden.json").read_text())
        self.walks = json.loads((HERE / "refs" / "walks.json").read_text())

    def check(self, argv: Sequence[str], code, out_path: Path) -> Optional[str]:
        """None if the job's exit code and artifact match, else why not."""
        want = self.golden.get(job_key(argv))
        if want is None:
            return "no reference for this job"
        if code != want["exit"]:
            return f"exit {code!r}, expected {want['exit']}"
        try:
            data = out_path.read_bytes()
        except FileNotFoundError:
            return "no artifact written"
        if hashlib.sha256(data).hexdigest() != want["sha256"]:
            return "artifact differs from the reference"
        doc = json.loads(data)
        if argv[0] == "bounds":
            return self._check_walks(doc)
        if argv[0] == "locality":
            return self._check_scan(doc)
        return None

    def _check_walks(self, doc) -> Optional[str]:
        model = doc["model"]
        ref = self.walks["sigma"].get(model)
        bridges = self.walks["bridges"].get(model)
        for row in doc["rows"]:
            n = row["n"]
            if ref is not None and n < len(ref) and row["sigma_n"] != ref[n]:
                return f"sigma_{n} = {row['sigma_n']}, independent value {ref[n]}"
            if bridges is not None and n < len(bridges) and row["b_n"] != bridges[n]:
                return f"b_{n} = {row['b_n']}, independent value {bridges[n]}"
            spot = OEIS_SIGMA.get((model, n))
            if spot is not None and row["sigma_n"] != spot:
                return f"sigma_{n} = {row['sigma_n']}, OEIS value {spot}"
        return None

    def _check_scan(self, doc) -> Optional[str]:
        for rec in doc["records"]:
            want = self.walks["scan_digests"].get(str(rec["m"]))
            if want is not None and rec["table_digest"] != want:
                return f"m={rec['m']} tables differ from the brute-force counts"
        return None


def run_probes(main, refs: References, out_dir: Path) -> List[Tuple[str, bool, str]]:
    """(name, kept its promise, what happened) for each known-defect probe."""
    results = []
    for name, argv, promise in workloads.PROBES:
        out_path = out_dir / f"probe-{name}.json"
        code = run_job(main, argv, out_path)
        if name == "iso_recursion":
            ok = code in (0, 2, 3, 4)
        else:
            # Exit 4 flags the truncation; exit 0 is right only if the tables
            # equal the unbudgeted ones.
            full = refs.golden[job_key(unbudgeted(argv))]
            ok = code == 4 or (code == 0 and out_path.is_file() and hashlib.sha256(
                out_path.read_bytes()).hexdigest() == full["sha256"])
        results.append((name, ok, f"got {code!r}; promise: {promise}"))
    return results


class SetupProbe:
    """Set-up CPU time of the workload, one fresh process (setup_probe.py)
    per sample. The benchmark takes one sample before each pass, so the samples
    spread over the run like the passes do."""

    def __init__(self, workload: str, seed: int) -> None:
        models = json.dumps(workloads.setup_models(workload, seed))
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), models]
        self.samples: List[float] = []
        self._time()  # may compile .pyc files; not counted

    def _time(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        return float(done.stdout)

    def sample(self) -> None:
        self.samples.append(self._time())

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


class Passes:
    """Closed-loop passes over the jobs, with output checks between passes."""

    def __init__(self, cli, jobs, refs: References, out_dir: Path) -> None:
        self.cli, self.jobs, self.refs, self.out_dir = cli, jobs, refs, out_dir
        self.times: List[float] = []
        self.cpu: List[float] = []
        self.layer: List[Dict[str, float]] = []
        self.executions = 0
        self.failed_executions = 0
        self.failed_jobs: Dict[str, str] = {}

    def run(self, seconds: float, tracer=None, before_pass=None) -> Tuple[List[float], List[float]]:
        """Passes for about `seconds`; their wall and CPU times."""
        times, cpu = [], []
        deadline = time.perf_counter() + seconds
        paths = [self.out_dir / f"job{i}.json" for i in range(len(self.jobs))]
        while True:
            if before_pass is not None:
                before_pass()
            if tracer is not None:
                first_span, counts0 = len(tracer.spans), dict(tracer.counts)
            codes = []
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            for argv, path in zip(self.jobs, paths):
                main = self.cli.main
                if tracer is not None:
                    main = tracer.span("job " + " ".join(argv), main)
                codes.append(run_job(main, argv, path))
            times.append(time.perf_counter() - start)
            cpu.append(cpu_seconds() - cpu_start)
            if tracer is not None:
                deltas = {k: v - counts0[k] for k, v in tracer.counts.items()}
                self.layer.append(tracing.layer_metrics(tracer.spans[first_span:], deltas))
            for argv, code, path in zip(self.jobs, codes, paths):
                self.executions += 1
                why = self.refs.check(argv, code, path)
                if why is not None:
                    self.failed_executions += 1
                    self.failed_jobs.setdefault(" ".join(argv), why)
                path.unlink(missing_ok=True)
            if time.perf_counter() + times[-1] > deadline:
                break
        self.times += times
        self.cpu += cpu
        return times, cpu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    refs = References()
    jobs = workloads.jobs(args.workload, args.seed)
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    passes = Passes(cli, jobs, refs, out_dir)
    metrics: Dict[str, float] = {}

    if args.trace == 0:
        setup = SetupProbe(args.workload, args.seed)
        passes.run(args.seconds, before_pass=setup.sample)
        metrics["cpu_s"] = statistics.median(passes.cpu)
        metrics["setup_s"] = setup.median()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        plain_wall, plain_cpu = passes.run(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_cpu = passes.run(args.seconds / 2, tracer)[1]
        finally:
            tracer.uninstall()
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        for name in passes.layer[0]:
            values = [p[name] for p in passes.layer]
            # Counts stay whole numbers: they are equal in every pass.
            median = statistics.median_low if isinstance(values[0], int) else statistics.median
            metrics[name] = median(values)
        metrics["wall_s"] = statistics.median(plain_wall)
        metrics["trace_overhead_s"] = statistics.median(traced_cpu) - statistics.median(plain_cpu)
        metrics["saw.pool_peak_rss_mb"] = tracer.pool_peak_rss_kb / 1024

    probes = run_probes(cli.main, refs, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    failed_ops = len(passes.failed_jobs) + sum(1 for _, ok, _ in probes if not ok)
    if args.trace == 0:
        metrics["failed_ratio"] = failed_ops / (len(jobs) + len(probes))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    log = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs", file=log)
    print("  pass wall times " + " ".join(f"{t:.3f}" for t in passes.times) + " s", file=log)
    print("  pass CPU times  " + " ".join(f"{t:.3f}" for t in passes.cpu) + " s", file=log)
    for name, value in metrics.items():
        print(f"  {name:26s} {value:.6g} {units[name]}", file=log)
    for argv, why in passes.failed_jobs.items():
        print(f"  FAILED {argv}: {why}", file=log)
    for name, ok, what in probes:
        print(f"  probe {name}: {'ok' if ok else 'FAILED'} ({what})", file=log)

    result = {
        "correct": passes.failed_executions == 0,
        "attempted": passes.executions,
        "failed": passes.failed_executions,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

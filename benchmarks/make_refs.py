"""Rebuild the benchmark's reference outputs in refs/.

Run from the repository root, on a commit whose outputs are trusted:

    python3 benchmarks/make_refs.py

refs/golden.json maps the reference key of every job any seed can give
any workload (and the unbudgeted form of the scan probe) to its exit code
and the sha256 of its JSON artifact, produced at --threads 1.
refs/walks.json holds walk counts computed independently of sawlab, with
the brute-force counters of tests/oracles.py and the closed form
sigma_n = 3 * 2^(n-1) of the 3-regular tree, plus the digests the
locality scan must print for the cylinder members it counts.

Regenerating the references hides any change in the outputs, so do it
only for a change that is meant to alter them, and say so.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402


def golden(cli) -> dict:
    out = {}
    path = run.OUT / "make_refs.json"
    run.OUT.mkdir(exist_ok=True)
    argvs = [argv for w in workloads.WORKLOADS for argv in workloads.all_jobs(w)]
    argvs += [run.unbudgeted(argv) for _, argv, _ in workloads.PROBES if "--budget" in argv]
    for argv in argvs:
        key = run.job_key(argv)
        if key in out:
            continue
        if "--threads" in argv:
            i = argv.index("--threads")
            argv = (*argv[:i], "--threads", "1", *argv[i + 2:])
        else:
            argv = (*argv, "--threads", "1")
        code = run.run_job(cli.main, argv, path)
        out[key] = {"exit": code, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        path.unlink()
    return dict(sorted(out.items()))


def csv(column: str, counts) -> str:
    # The layout of sawlab's CountTable.to_csv, rows 1..n.
    return "\n".join([f"n,{column}"] + [f"{n},{c}" for n, c in enumerate(counts) if n]) + "\n"


def walks() -> dict:
    sizes = dict(workloads.WALK_MODELS)
    x = lambda v: v[0]  # noqa: E731  (the default height of zd_d and cylinders)
    sigma = {
        "zd2": oracles.brute_saw_counts(oracles.zd_neighbors(2), (0, 0), sizes["zd2"]),
        "zd3": oracles.brute_saw_counts(oracles.zd_neighbors(3), (0, 0, 0), sizes["zd3"]),
        "hexagonal": oracles.brute_saw_counts(
            oracles.brick_wall_neighbors, (0, 0), sizes["hexagonal"]),
        "square_octagon": oracles.brute_saw_counts(
            oracles.truncated_square_neighbors, (0, 0, 0), sizes["square_octagon"]),
        "tree3": [oracles.tree3_sigma(n) for n in range(sizes["tree3"] + 1)],
    }
    bridges = {
        "zd2": oracles.brute_bridge_counts(oracles.zd_neighbors(2), (0, 0), x, sizes["zd2"]),
        "zd3": oracles.brute_bridge_counts(oracles.zd_neighbors(3), (0, 0, 0), x, sizes["zd3"]),
    }
    for (model, n), value in run.OEIS_SIGMA.items():
        assert sigma[model][n] == value, (model, n)
    scan_n = int(workloads.SCAN[workloads.SCAN.index("--n-max") + 1])
    digests = {}
    for m in range(4, 10):
        neigh = oracles.cylinder_neighbors(m)
        text = (csv("sigma_n", oracles.brute_saw_counts(neigh, (0, 0), scan_n))
                + csv("b_n", oracles.brute_bridge_counts(neigh, (0, 0), x, scan_n)))
        digests[str(m)] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return {"sigma": sigma, "bridges": bridges, "scan_digests": digests}


def main() -> None:
    cli = run.load_cli()
    refs = run.HERE / "refs"
    refs.mkdir(exist_ok=True)
    (refs / "golden.json").write_text(json.dumps(golden(cli), indent=1) + "\n")
    (refs / "walks.json").write_text(json.dumps(walks(), indent=1) + "\n")


if __name__ == "__main__":
    main()

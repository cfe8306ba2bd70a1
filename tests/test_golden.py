"""Byte-identical CLI artifacts: every benchmark job against its reference.

`benchmarks/refs/golden.json` maps each benchmark job's argv (without
--threads) to the exit code and the sha256 of the JSON artifact it
writes at --threads 1. Each job is replayed here through `cli.main`,
writing only into pytest's temporary directory, so any change to an
artifact fails this test before it reaches the benchmark. The `bounds`
jobs are replayed at --threads 2 as well, where the counts split their
walks over prefixes, and must write the same bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sawlab import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "refs" / "golden.json").read_text()
)


def _replay(key, threads, out):
    argv = key.split() + [
        "--threads", threads, "--format", "json", "--no-timestamp", "--output", str(out),
    ]
    code = cli.main(argv)
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[key]["sha256"]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifact_matches_reference(key, tmp_path):
    _replay(key, "1", tmp_path / "artifact.json")


@pytest.mark.parametrize("key", sorted(k for k in GOLDEN if k.startswith("bounds ")))
def test_bounds_artifact_matches_reference_on_two_threads(key, tmp_path):
    _replay(key, "2", tmp_path / "artifact.json")

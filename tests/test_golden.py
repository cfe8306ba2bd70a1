"""Byte-identical CLI artifacts: every benchmark job against its reference.

`benchmarks/refs/golden.json` maps each benchmark job's argv (without
--threads) to the exit code and the sha256 of the JSON artifact it
writes at --threads 1. Each job is replayed here through `cli.main`,
writing only into pytest's temporary directory, so any change to an
artifact fails this test before it reaches the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sawlab import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "refs" / "golden.json").read_text()
)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_artifact_matches_reference(key, tmp_path, capsys):
    out = tmp_path / "artifact.json"
    argv = key.split() + [
        "--threads", "1", "--format", "json", "--no-timestamp", "--output", str(out),
    ]
    code = cli.main(argv)
    capsys.readouterr()
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[key]["sha256"]

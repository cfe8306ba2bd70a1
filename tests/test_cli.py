"""Command-line interface: exit codes, artifacts, golden outputs."""

import json

import pytest

from sawlab.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_ok(capsys):
    assert run(capsys, "ghf", "--model", "hexagonal")[0] == EXIT_OK
    assert run(capsys, "count", "--model", "zd2", "--n-max", "3")[0] == EXIT_OK


@pytest.mark.parametrize("model", ["square_octagon", "dihedral_line", "higman", "sl2z"])
def test_exit_negative_when_no_ghf(capsys, model):
    code, out, _ = run(capsys, "ghf", "--model", model)
    assert code == EXIT_NEGATIVE
    assert "no group height function" in out


def test_exit_input_errors(capsys, tmp_path):
    assert run(capsys, "count", "--model", "nonsense")[0] == EXIT_INPUT
    assert run(capsys, "harmonic", "--pg", str(tmp_path / "nope.json"))[0] == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "harmonic", "--pg", str(bad))[0] == EXIT_INPUT
    assert run(capsys, "locality", "--model", "zd2", "--m-list", "4,x")[0] == EXIT_INPUT


def test_exit_budget(capsys):
    code, _, err = run(
        capsys, "count", "--model", "zd2", "--n-max", "10", "--budget", "200"
    )
    assert code == EXIT_BUDGET


def test_locality_exit_budget_on_truncated_tables(capsys, tmp_path):
    argv = ["locality", "--m-list", "4,5", "--threads", "1",
            "--format", "json", "--no-timestamp"]
    full, cut = tmp_path / "full.json", tmp_path / "cut.json"
    assert run(capsys, *argv, "--n-max", "5", "--output", str(full))[0] == EXIT_OK
    code, _, _ = run(capsys, *argv, "--n-max", "10", "--budget", "2000",
                     "--output", str(cut))
    assert code == EXIT_BUDGET
    # the flag changes the exit code only; the artifact has the same keys
    assert json.loads(cut.read_text()).keys() == json.loads(full.read_text()).keys()


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--model", "zd2", "--frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Golden stdout
# ---------------------------------------------------------------------------


def test_count_golden_csv(capsys):
    code, out, _ = run(capsys, "count", "--model", "zd2", "--n-max", "4")
    assert code == EXIT_OK
    assert out == "n,sigma_n\n1,4\n2,12\n3,36\n4,100\n"


def test_bridges_on_line_are_all_one(capsys):
    code, out, _ = run(
        capsys, "bridges", "--model", "zd1", "--height", "identity", "--n-max", "8"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,b_n"
    assert all(line.endswith(",1") for line in lines[1:])
    assert len(lines) == 9


def test_bounds_csv_header(capsys):
    code, out, _ = run(capsys, "bounds", "--model", "zd2", "--n-max", "4")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "n,sigma_n,b_n,lower_root,upper_root"
    assert out.splitlines()[4].startswith("4,100,17,")


# Every spelling resolve_model accepts, with the canonical spelling of its
# model: the default height follows the model, not the spelling.
MODEL_ALIASES = [
    ("zd2", "zd_2"), ("zd2", "ZD2"), ("zd2", " zd2 "),
    ("cylinder_zd5", "cylinder5"), ("cylinder_zd5", "cylinder_5"),
    ("cylinder_zd5", "cylinder_zd_5"),
    ("ladder_dihedral6", "ladder6"), ("ladder_dihedral6", "ladder_6"),
    ("ladder_dihedral6", "ladder_dihedral_6"),
    ("dihedral_line", "dihedral"),
    ("tree3", "tree_3"), ("tree3", "Tree3"),
    ("heisenberg", "HEISENBERG"),
    ("lamplighter", "Lamplighter"),
    ("grandparent", "Grandparent"),
    ("hexagonal", "Hexagonal"),
    ("square_octagon", "Square_Octagon"),
]


@pytest.mark.parametrize("canonical,alias", MODEL_ALIASES)
def test_bounds_default_height_for_every_model_spelling(capsys, canonical, alias):
    argv = ["--n-max", "4", "--threads", "1", "--format", "json", "--no-timestamp"]
    code, want, _ = run(capsys, "bounds", "--model", canonical, *argv)
    assert code == EXIT_OK
    code, got, err = run(capsys, "bounds", "--model", alias, *argv)
    assert code == EXIT_OK, err
    assert got == want


def test_verify_grandparent(capsys):
    code, out, _ = run(capsys, "verify", "--model", "grandparent")
    assert code == EXIT_OK
    assert "axioms: pass" in out
    assert "uniform 7/8" in out
    assert "d = 2" in out


def test_harmonic_model_and_pg_file(capsys, tmp_path):
    code, out, _ = run(capsys, "harmonic", "--model", "dihedral_line")
    assert code == EXIT_OK
    assert "lambda = (1), f = (0, 1/2)" in out
    assert "lambda = [2], f = [0, 1], scale = 2" in out

    doc = tmp_path / "pg.json"
    doc.write_text(
        json.dumps(
            {"orbits": 2, "dim": 1, "edges": [[1, 2, [0]], [2, 1, [1]]]}
        )
    )
    code, out2, _ = run(capsys, "harmonic", "--pg", str(doc))
    assert code == EXIT_OK
    assert "lambda = (1), f = (0, 1/2)" in out2


def test_ball_iso_stdout(capsys):
    code, out, _ = run(capsys, "ball-iso", "--a", "zd2", "--b", "cylinder8", "--bound", "6")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "K(zd2, cylinder8) = 3 (bound 6)"
    assert "radius 4: different" in out


def test_locality_stdout(capsys):
    code, out, _ = run(
        capsys,
        "locality", "--model", "zd2", "--family", "cylinder",
        "--m-list", "4,6", "--n-max", "4",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "m,K,agree_up_to,lower_bound,upper_bound,table_digest"
    assert lines[1].startswith("4,1,3,")
    assert lines[2].startswith("6,2,4,")


def test_preset_list(capsys):
    code, out, _ = run(capsys, "--preset-list")
    assert code == EXIT_OK
    for name in ("zd2", "hexagonal", "square_octagon", "grandparent", "cylinder_zd"):
        assert name in out


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def test_output_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys, "count", "--model", "zd2", "--n-max", "4", "--output", str(target)
    )
    assert code == EXIT_OK
    assert target.read_text() == "n,sigma_n\n1,4\n2,12\n3,36\n4,100\n"
    assert [p.name for p in tmp_path.iterdir()] == ["counts.csv"]


def test_json_artifact_timestamp_control(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "count", "--model", "zd2", "--n-max", "4",
            "--format", "json", "--no-timestamp", "--output", str(target),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert "generated_at" not in json.loads(a.read_text())

    stamped = tmp_path / "c.json"
    run(
        capsys,
        "count", "--model", "zd2", "--n-max", "4",
        "--format", "json", "--output", str(stamped),
    )
    assert "generated_at" in json.loads(stamped.read_text())


def test_ghf_artifact(capsys, tmp_path):
    target = tmp_path / "ghf.json"
    code, out, _ = run(
        capsys, "ghf", "--model", "hexagonal", "--no-timestamp", "--output", str(target)
    )
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert doc["presentation"] == "hexagonal"
    assert doc["rank"] == 2 and doc["betti"] == 1
    assert doc["exists"] is True


def test_locality_json_artifact(capsys, tmp_path):
    target = tmp_path / "scan.json"
    code, _, _ = run(
        capsys,
        "locality", "--model", "zd2", "--family", "cylinder",
        "--m-list", "4,8", "--n-max", "4",
        "--format", "json", "--no-timestamp", "--output", str(target),
    )
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert [r["K"] for r in doc["records"]] == [1, 3]
    assert doc["rank_precondition"]["satisfied"] is True


def test_verify_exit_negative_on_failing_height(capsys):
    # level height only makes sense on the grandparent tree; on zd2 the
    # constant level has no strictly increasing neighbors
    code, out, _ = run(capsys, "verify", "--model", "zd2", "--height", "level")
    assert code in (EXIT_NEGATIVE, EXIT_INPUT)

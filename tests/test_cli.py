"""Command-line interface: exit codes, artifacts, golden outputs."""

import argparse
import json

import pytest

from sawlab import _linalg, cli, graphs, heights, locality
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


@pytest.mark.parametrize("model", ["grandparent", "lamplighter", "tree3"])
@pytest.mark.parametrize("height", ["x", "y"])
def test_coordinate_height_needs_a_model_with_coordinates(capsys, model, height):
    for command in ("bridges", "verify"):
        code, out, err = run(capsys, command, "--model", model, "--height", height)
        assert code == EXIT_INPUT, (command, model)
        assert out == "" and "needs a model with coordinates" in err


@pytest.mark.parametrize("model,name", [("zd1", "zd1"), ("cylinder5", "cylinder_zd5"),
                                        ("dihedral", "dihedral")])
def test_height_y_needs_a_second_dimension(capsys, model, name):
    for argv in (("bridges", "--n-max", "3"), ("verify",)):
        code, out, err = run(capsys, *argv, "--model", model, "--height", "y")
        assert code == EXIT_INPUT, (argv, model)
        assert out == "" and f"{name} has dimension 1" in err


def test_exit_budget(capsys):
    code, _, err = run(
        capsys, "count", "--model", "zd2", "--n-max", "10", "--budget", "200"
    )
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_budget_variable_that_is_not_a_positive_integer_is_named(capsys, monkeypatch, value):
    monkeypatch.setenv("SAWLAB_BUDGET", value)
    code, out, err = run(capsys, "count", "--model", "zd2", "--n-max", "3")
    assert code == EXIT_INPUT
    assert out == "" and err == "error: SAWLAB_BUDGET must be a positive integer\n"


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


@pytest.mark.parametrize("model", ["zd1", "zd3", "cylinder5", "ladder_dihedral4", "dihedral"])
def test_harmonic_model_is_its_document(capsys, tmp_path, model):
    # Every periodic catalog model reaches harmonic, and solves as its
    # voltage graph read from a document does.
    doc = tmp_path / "pg.json"
    doc.write_text(json.dumps(graphs.resolve_model(model).pg.to_document()))
    artifacts = []
    for source in (("--model", model), ("--input", str(doc))):
        target = tmp_path / "out.json"
        assert run(capsys, "harmonic", *source, "--output", str(target))[0] == EXIT_OK
        artifact = json.loads(target.read_text())
        assert artifact.pop("periodic_graph") == source[1]
        artifacts.append(artifact)
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("model", ["tree3", "lamplighter", "heisenberg", "grandparent"])
def test_harmonic_rejects_models_that_are_not_periodic(capsys, model):
    code, out, err = run(capsys, "harmonic", "--model", model)
    assert code == EXIT_INPUT
    assert out == "" and "not a periodic graph" in err


def test_harmonic_exits_negative_at_once_without_increments(capsys, tmp_path):
    # Orbit 2 takes orbit 1's value in every harmonic solution of this
    # d = 6 document, and every solution of a dimension-0 document is
    # constant, so neither has a repaired height.
    d = 6
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    docs = [
        ({"orbits": 2, "dim": d, "edges": [[1, 2, [0] * d]] + [[1, 1, e] for e in units]},
         "orbit 2"),
        ({"orbits": 2, "dim": 0, "edges": [[1, 2, []]]}, "dimension 0"),
    ]
    for doc, reason in docs:
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "harmonic", "--input", str(path))
        assert code == EXIT_NEGATIVE
        assert reason in err


@pytest.mark.parametrize("command,doc", [
    ("harmonic", {"orbits": 1, "dim": 1, "edges": 5}),
    ("harmonic", {"orbits": 1, "dim": 1, "edges": [5]}),
    ("harmonic", {"orbits": 1, "dim": 1, "edges": [[1, 1, 5]]}),
    ("harmonic", {"orbits": 1, "dim": 1, "edges": [[1, 1, [1], ["x"]]]}),
    ("ghf", {"generators": 5}),
    ("ghf", {"generators": ["a", "A"], "relators": 5}),
], ids=str)
def test_wrong_typed_input_documents_exit_2(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ")


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
    lines = out.splitlines()
    assert "  zd<d>" in lines and "  cylinder_zd<m> (alias cylinder<m>)" in lines
    assert "  dihedral (alias dihedral_line)" in lines
    documents = {
        name: json.loads(doc)
        for name, _, doc in (line.strip().partition(": ") for line in lines if "{" in line)
    }
    assert sorted(documents) == ["dihedral", "hexagonal", "square_octagon"]
    for name, doc in documents.items():
        assert doc == graphs.resolve_model(name).pg.to_document()


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


# One small job per subcommand, and whether its JSON artifact is stamped
# with generated_at when --no-timestamp is not given.
ARTIFACT_JOBS = [
    (["ghf", "--model", "hexagonal"], False),
    (["count", "--model", "zd2", "--n-max", "4"], True),
    (["bridges", "--model", "zd2", "--n-max", "4"], True),
    (["bounds", "--model", "zd2", "--n-max", "4", "--threads", "1"], True),
    (["harmonic", "--model", "hexagonal"], False),
    (["verify", "--model", "zd2", "--radius", "2"], True),
    (["ball-iso", "--a", "zd2", "--b", "cylinder4", "--bound", "3"], True),
    (["locality", "--m-list", "4,5", "--n-max", "4", "--threads", "1"], True),
]


@pytest.mark.parametrize("argv,stamped", ARTIFACT_JOBS,
                         ids=[argv[0] for argv, _ in ARTIFACT_JOBS])
def test_json_artifact_timestamp_policy(capsys, tmp_path, argv, stamped):
    plain, stamp = tmp_path / "plain.json", tmp_path / "stamp.json"
    argv = argv + ["--format", "json"]
    assert run(capsys, *argv, "--no-timestamp", "--output", str(plain))[0] == EXIT_OK
    assert run(capsys, *argv, "--output", str(stamp))[0] == EXIT_OK
    plain_doc, stamp_doc = json.loads(plain.read_text()), json.loads(stamp.read_text())
    assert "generated_at" not in plain_doc
    assert ("generated_at" in stamp_doc) == stamped
    stamp_doc.pop("generated_at", None)
    assert stamp_doc == plain_doc


def test_harmonic_pg_and_input_write_identical_bytes(capsys, tmp_path):
    doc = tmp_path / "pg.json"
    doc.write_text(json.dumps({"orbits": 2, "dim": 1, "edges": [[1, 2, [0]], [2, 1, [1]]]}))
    outputs = []
    for flag in ("--pg", "--input"):
        target = tmp_path / f"out{flag}.json"
        assert run(capsys, "harmonic", flag, str(doc), "--output", str(target))[0] == EXIT_OK
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


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
    # x is not a height of the hexagonal cover: the root has no strictly
    # higher neighbor. The level height is defined on grandparent only.
    code, out, _ = run(capsys, "verify", "--model", "hexagonal", "--height", "x",
                       "--radius", "2")
    assert code == EXIT_NEGATIVE
    assert "axioms: FAIL" in out
    assert "no strictly higher neighbor at (1, (0, 0)) (h = 0)" in out
    code, out, err = run(capsys, "verify", "--model", "zd2", "--height", "level")
    assert code == EXIT_INPUT and "level height" in err


STRUCTURAL = "invariance: structural (invariant by construction)"
EXACT = "invariance: exact (unit translations of each orbit)"
VERIFY_REPORTS = {
    # A height read at vertices.
    ("zd2", "3"): (EXIT_OK, f"""model zd2, height x, radius 3
axioms: pass (25 vertices; {EXACT})
harmonic defect: uniform 0 over 25 vertices
d = 1
"""),
    # A word sum.
    ("heisenberg", "3"): (EXIT_OK, f"""model heisenberg, height ghf, radius 3
axioms: pass (83 vertices; {STRUCTURAL})
harmonic defect: uniform 0 over 83 vertices
d = 1
"""),
    ("grandparent", "4"): (EXIT_OK, f"""model grandparent, height level, radius 4
axioms: pass (681 vertices; {STRUCTURAL})
harmonic defect: uniform 7/8 over 681 vertices
d = 2
"""),
    # Failing axioms, and defects that are not uniform: the first ten
    # failures and the worst defect are printed.
    ("hexagonal", "2", "--height", "x"): (EXIT_NEGATIVE, f"""model hexagonal, height x, radius 2
axioms: FAIL (10 vertices; {EXACT})
  no strictly higher neighbor at (1, (0, 0)) (h = 0)
  no strictly lower neighbor at (2, (-1, 0)) (h = -1)
  no strictly lower neighbor at (2, (0, -1)) (h = 0)
  no strictly lower neighbor at (2, (0, 0)) (h = 0)
  no strictly higher neighbor at (1, (-1, 0)) (h = -1)
  no strictly higher neighbor at (1, (-1, 1)) (h = -1)
  no strictly higher neighbor at (1, (0, -1)) (h = 0)
  no strictly higher neighbor at (1, (0, 1)) (h = 0)
  no strictly higher neighbor at (1, (1, -1)) (h = 1)
  no strictly higher neighbor at (1, (1, 0)) (h = 1)
harmonic defects: 2 distinct values, worst 1/3 at (1, (0, 0))
d = 1
"""),
}


@pytest.mark.parametrize("args", VERIFY_REPORTS, ids=lambda args: args[0])
def test_verify_report_is_frozen(capsys, args):
    model, radius, *height = args
    got = run(capsys, "verify", "--model", model, "--radius", radius, *height)
    assert got == (*VERIFY_REPORTS[args], "")


def test_verify_rejects_negative_radius_before_any_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --radius was checked")

    monkeypatch.setattr(graphs, "resolve_model", refuse)
    monkeypatch.setattr(heights, "increase_repair", refuse)
    for model in ("zd2", "square_octagon"):
        assert _exit_code(["verify", "--model", model, "--radius", "-1"]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and "--radius" in out.err


def test_verify_budget_caps_its_ball(capsys):
    # the radius-3 check reads the radius-4 ball of Z^2: 41 vertices
    argv = ("verify", "--model", "zd2", "--radius", "3")
    assert run(capsys, *argv, "--budget", "41")[0] == EXIT_OK
    code, out, err = run(capsys, *argv, "--budget", "40")
    assert code == EXIT_BUDGET
    assert out == "" and "40 vertices" in err


def test_verify_expands_each_vertex_once(capsys, monkeypatch):
    # The check reads one BFS: `neighbors` runs once per vertex it expands,
    # and no Ball is built. It expands the vertices within `top` of the
    # root: max(radius, 2) for a height read at vertices, whose rows the
    # checks read, and radius + 1 for a word sum, checked for conflicts on
    # the edges within radius + 1.
    cases = [
        ("grandparent", graphs.GrandparentOracle, "level", ((0, 2), (1, 2), (5, 5))),
        ("heisenberg", graphs.HeisenbergOracle, "ghf", ((3, 4),)),
        # On zd2, "x" is the default (repaired) height and "y" the periodic
        # height of the second coordinate.
        ("zd2", graphs.PGOracle, "y", ((0, 2), (2, 2))),
    ]
    sizes = {(model, top): graphs.ball(graphs.resolve_model(model), top).vertex_count()
             for model, _oracle, _height, radii in cases for _radius, top in radii}
    # Not one vertex of the grandparent's radius-6 shell is expanded.
    assert sizes["grandparent", 5] == 2729
    expanded = []

    def counting(neighbors):
        def counting_neighbors(self, v):
            expanded.append(v)
            return neighbors(self, v)
        return counting_neighbors

    def refuse(*args, **kwargs):
        raise AssertionError("verify built a Ball")

    for _model, oracle, _height, _radii in cases:
        monkeypatch.setattr(oracle, "neighbors", counting(oracle.neighbors))
    monkeypatch.setattr(graphs.BallGrowth, "__init__", refuse)
    for model, _oracle, height, radii in cases:
        for radius, top in radii:
            expanded.clear()
            argv = ("verify", "--model", model, "--height", height, "--radius", str(radius))
            assert run(capsys, *argv)[0] == EXIT_OK
            assert len(expanded) == len(set(expanded)) == sizes[model, top], (model, radius)


@pytest.mark.parametrize("argv", [
    ("ghf", "--model", "hexagonal"),
    ("harmonic", "--model", "hexagonal"),
    ("verify", "--model", "zd2", "--radius", "2"),
    ("ball-iso", "--a", "zd2", "--b", "zd2", "--bound", "2"),
], ids=lambda argv: argv[0])
def test_json_only_commands_reject_csv(capsys, tmp_path, argv):
    target = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--format", "csv", "--output", str(target))
    assert code == EXIT_INPUT
    assert out == "" and "--format csv" in err
    assert not target.exists()
    code, _, _ = run(capsys, *argv, "--format", "json", "--output", str(target))
    assert code == EXIT_OK
    json.loads(target.read_text())


# ---------------------------------------------------------------------------
# Each subcommand parses only the options it reads
# ---------------------------------------------------------------------------

SHARED_DESTS = {"format", "output", "no_timestamp", "threads"}

# Each subcommand's own options (after the shared four) and one small job.
OWN_OPTIONS = {
    "ghf": ("--model", "--input"),
    "count": ("--model", "--n-max", "--budget"),
    "bridges": ("--model", "--n-max", "--budget", "--height"),
    "bounds": ("--model", "--n-max", "--budget", "--height", "--precision"),
    "harmonic": ("--model", "--input", "--pg"),
    "verify": ("--model", "--height", "--radius", "--budget"),
    "ball-iso": ("--a", "--b", "--bound", "--budget"),
    "locality": ("--model", "--family", "--m-list", "--n-max", "--bound", "--budget",
                 "--precision"),
}
SMALL_JOBS = {
    "ghf": ["ghf", "--model", "hexagonal"],
    "count": ["count", "--model", "zd2", "--n-max", "3"],
    "bridges": ["bridges", "--model", "zd2", "--n-max", "3"],
    "bounds": ["bounds", "--model", "zd2", "--n-max", "3"],
    "harmonic": ["harmonic", "--model", "hexagonal"],
    "verify": ["verify", "--model", "zd2", "--radius", "1"],
    "ball-iso": ["ball-iso", "--a", "zd2", "--b", "cylinder4", "--bound", "2"],
    "locality": ["locality", "--m-list", "4", "--n-max", "3"],
}
# The shared flags a subcommand accepts but has no use for.
HARNESS_NO_OPS = {
    "ghf": {"threads", "no_timestamp"},
    "harmonic": {"threads", "no_timestamp"},
    "verify": {"threads"},
    "ball-iso": {"threads"},
}
# Every subcommand refuses the options of the others, and no prefix of an
# option stands for it (`count --b` is not `--budget`).
EVERY_OWN_OPTION = sorted(set().union(*OWN_OPTIONS.values()))
UNDECLARED = [
    (command, flag)
    for command, own in OWN_OPTIONS.items()
    for flag in EVERY_OWN_OPTION
    if flag not in own
] + [("count", "--b"), ("verify", "--b"), ("bounds", "--pre")]


def _dest(flag):
    return "input_path" if flag in ("--input", "--pg") else flag[2:].replace("-", "_")


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


@pytest.mark.parametrize("command,flag", UNDECLARED, ids=[f"{c}{f}" for c, f in UNDECLARED])
def test_subcommand_rejects_options_it_does_not_read(capsys, command, flag):
    assert _exit_code(SMALL_JOBS[command] + ["--threads", "1", flag, "3"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("count", "--model", "zd2", "--n-max", "3", "--radius", "99", "--bound", "-5",
     "--input", "/nonexistent"),
    ("ghf", "--model", "hexagonal", "--n-max", "3"),
    ("ghf", "--model", "hexagonal", "--n-max", "3", "--budget", "7", "--radius", "2"),
    ("ball-iso", "--a", "zd2", "--b", "zd2", "--bound", "2", "--model", "zd2"),
], ids=lambda argv: argv[0])
def test_ignored_options_are_usage_errors(capsys, argv):
    assert _exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("ghf", "--model", "hexagonal", "--input", "presentation.json"),
    ("harmonic", "--model", "hexagonal", "--input", "pg.json"),
    ("harmonic", "--model", "hexagonal", "--pg", "pg.json"),
    ("harmonic", "--input", "pg.json", "--pg", "pg.json"),
    ("ghf",),
    ("harmonic",),
], ids=" ".join)
def test_ghf_and_harmonic_take_exactly_one_input(capsys, argv):
    assert _exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["ghf", "harmonic"])
def test_empty_input_path_is_a_missing_file(capsys, command):
    code, out, err = run(capsys, command, "--input", "")
    assert code == EXIT_INPUT
    assert out == "" and "No such file" in err


BUDGETED = ["count", "bounds", "verify", "ball-iso", "locality"]


@pytest.mark.parametrize("argv", [
    ("count", "--model", "zd2", "--n-max", "3", "--threads", "0"),
    ("bounds", "--model", "zd2", "--n-max", "3", "--threads", "1", "--precision", "0"),
    ("locality", "--m-list", "4", "--n-max", "3", "--threads", "1", "--precision", "0"),
    ("count", "--model", "zd2", "--n-max", "-1", "--threads", "1"),
    ("locality", "--m-list", "4", "--n-max", "-1", "--threads", "1"),
    ("count", "--model", "zd2", "--n-max", "x", "--threads", "1"),
] + [
    (*SMALL_JOBS[command], "--threads", "1", "--budget", budget)
    for command in BUDGETED for budget in ("0", "-5")
], ids=" ".join)
def test_invalid_values_are_usage_errors(capsys, argv):
    assert _exit_code(argv) == 2
    assert capsys.readouterr().out == ""


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built, outputs = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (SMALL_JOBS["count"], SMALL_JOBS["bridges"], SMALL_JOBS["count"]):
            assert main(argv + ["--threads", "1"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    # A parse leaves nothing behind: the same argv prints the same again.
    assert outputs[0] == outputs[2] != outputs[1]


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_every_declared_option_is_read(capsys, tmp_path, monkeypatch, command):
    parsed, reads = {}, set()

    class ReadSpy(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse = argparse.ArgumentParser.parse_args

    def parse_and_spy(parser, argv=None, namespace=None):
        parsed.update(vars(parse(parser, argv, namespace)))
        return ReadSpy(**parsed)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_and_spy)
    argv = SMALL_JOBS[command] + ["--threads", "1", "--format", "json", "--no-timestamp",
                                  "--output", str(tmp_path / "artifact.json")]
    assert main(argv) == EXIT_OK
    declared = set(parsed) - {"command", "preset_list"}
    assert declared == SHARED_DESTS | {_dest(flag) for flag in OWN_OPTIONS[command]}
    assert declared - reads == HARNESS_NO_OPS.get(command, set())


@pytest.mark.parametrize("canonical,alias", [
    ("zd3", "ZD3"), ("dihedral", "dihedral_line"), ("zd2", "zd_2"),
])
def test_locality_artifact_for_every_model_spelling(capsys, canonical, alias):
    argv = ["--m-list", "4", "--n-max", "3", "--threads", "1", "--format", "json",
            "--no-timestamp"]
    code, want, _ = run(capsys, "locality", "--model", canonical, *argv)
    assert code == EXIT_OK
    assert json.loads(want)["rank_precondition"] is not None
    code, got, err = run(capsys, "locality", "--model", alias, *argv)
    assert code == EXIT_OK, err
    assert got == want


@pytest.mark.parametrize("canonical,spelling", [
    ("zd2", "ZD2"), ("zd2", " zd2 "), ("zd2", "zd_2"), ("zd3", "Zd_3"),
    ("dihedral", "dihedral_line"), ("tree3", "Tree_3"), ("higman", "HIGMAN"),
    ("sl2z", "SL2Z"), ("square_octagon", "Square_Octagon"),
])
def test_ghf_model_accepts_every_spelling(capsys, tmp_path, canonical, spelling):
    docs = {}
    for name in (canonical, spelling):
        target = tmp_path / "ghf.json"
        code, _, err = run(capsys, "ghf", "--model", name, "--output", str(target))
        assert code in (EXIT_OK, EXIT_NEGATIVE), err
        docs[name] = (code, json.loads(target.read_text()))
    code, got = docs[spelling]
    assert got["presentation"] == spelling
    assert (code, {**got, "presentation": canonical}) == docs[canonical]


def test_ghf_d_is_the_largest_absolute_increment(capsys, tmp_path):
    doc = tmp_path / "presentation.json"
    doc.write_text(json.dumps({"generators": ["a", "b"], "relators": ["a a a b"]}))
    code, out, _ = run(capsys, "ghf", "--input", str(doc))
    assert code == EXIT_OK
    assert "height exists: gamma = (a:1, b:-3), d = 3" in out


@pytest.mark.parametrize("doc,betti,gamma,sizes", [
    # a A = 1 forces gamma(A) = -gamma(a): (a:1, A:0) is no height.
    ({"generators": ["a", "A"], "inverse_pairs": [["a", "A"]]}, 1, [1, -1],
     "|S| = 2, |R| = 0 (coefficient rows: 1)"),
    # Z^2 has Betti number 2, not the 3 of its one relator row.
    ({"generators": ["a", "A", "b", "B"], "inverse_pairs": [["a", "A"], ["b", "B"]],
      "relators": ["a b A B"]}, 2, [1, -1, 0, 0], "|S| = 4, |R| = 1 (coefficient rows: 3)"),
], ids=["free_cyclic", "z2"])
def test_ghf_counts_inverse_pairs_as_relations(capsys, tmp_path, doc, betti, gamma, sizes):
    source, target = tmp_path / "presentation.json", tmp_path / "ghf.json"
    source.write_text(json.dumps(doc))
    code, out, err = run(capsys, "ghf", "--input", str(source), "--format", "json",
                         "--output", str(target))
    assert code == EXIT_OK, err
    # |R| counts the relators the document lists; inverse pairs add rows.
    assert out.splitlines()[1] == sizes
    got = json.loads(target.read_text())
    assert (got["betti"], got["gamma"], got["d"]) == (betti, gamma, 1)
    assert got["rank"] == len(doc["generators"]) - betti


def test_ghf_reduces_its_coefficient_matrix_once(capsys, monkeypatch):
    reductions = []
    rref = _linalg.rref
    monkeypatch.setattr(_linalg, "rref", lambda rows: reductions.append(rows) or rref(rows))
    code, out, _ = run(capsys, "ghf", "--model", "hexagonal")
    assert code == EXIT_OK and "rank(C) = 2, Betti = 1" in out
    assert len(reductions) == 1


def test_harmonic_forms_and_reduces_its_orbit_system_once(capsys, monkeypatch):
    systems, reductions = [], []
    build, rref = heights._orbit_system, _linalg.rref
    monkeypatch.setattr(heights, "_orbit_system", lambda *a: systems.append(a) or build(*a))
    monkeypatch.setattr(_linalg, "rref", lambda rows: reductions.append(rows) or rref(rows))
    assert run(capsys, "harmonic", "--model", "square_octagon")[0] == EXIT_OK
    assert len(systems) == 1 and len(reductions) == 1


@pytest.mark.parametrize("argv", [
    ("locality", "--bound", "-1", "--n-max", "11", "--m-list", "4", "--threads", "1"),
    ("ball-iso", "--a", "zd2", "--b", "zd2", "--bound", "-1"),
], ids=" ".join)
def test_negative_bound_is_a_usage_error_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --bound was checked")

    monkeypatch.setattr(graphs, "resolve_model", refuse)
    monkeypatch.setattr(locality, "count_saws", refuse)
    assert _exit_code(argv) == 2
    assert "--bound" in capsys.readouterr().err

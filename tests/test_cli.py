"""CLI surface: JSON round-trips, exit codes, golden figure output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tropsquare.cli import MAX_DEPTH, MAX_GAPS_CONDUCTOR, MAX_WINDOW, main

GOLDEN = Path(__file__).parent / "golden" / "figure1.svg"

E4_JSON = {"generators": [[0, 8], [2, 5], [5, 3], [7, 0]]}


@pytest.fixture
def e4_file(tmp_path):
    path = tmp_path / "e4.json"
    path.write_text(json.dumps(E4_JSON))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# -- set and polygon operations ------------------------------------------------


def test_hereditary_mul(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"generators": [[1, 0]]}))
    b.write_text(json.dumps({"generators": [[0, 1]]}))
    out = run_json(capsys, "hereditary", "mul", "--lhs", str(a), "--rhs", str(b))
    assert out == {"generators": [[1, 1]]}


def test_canonical_json_roundtrip_identity(capsys, e4_file):
    out = run_json(capsys, "hereditary", "canonicalize", "--input", e4_file)
    assert out == E4_JSON
    # messy input canonicalizes to the same form
    messy = Path(e4_file).parent / "messy.json"
    messy.write_text(json.dumps({"generators": [[7, 0], [5, 3], [2, 5], [0, 8], [9, 9]]}))
    assert run_json(capsys, "hereditary", "canonicalize", "--input", str(messy)) == E4_JSON


def test_hereditary_degree_ops(capsys, e4_file):
    assert run_json(capsys, "hereditary", "degree", "--input", e4_file) == {"exponent": 7}
    out = run_json(capsys, "hereditary", "weighted-degree", "--input", e4_file, "--r", "1/3")
    assert out == {"alpha": [7, 3]}


def test_hereditary_scale_and_rasterize(capsys, tmp_path):
    src = tmp_path / "x.json"
    src.write_text(json.dumps({"generators": [[1, 2]]}))
    out = run_json(capsys, "hereditary", "scale", "--input", str(src), "--n", "2", "--m", "3")
    assert out == {"generators": [[2, 6]]}
    out = run_json(capsys, "hereditary", "rasterize", "--input", str(src), "--window", "3")
    assert out == {"window": 3, "rows": [[0, 0, 0], [0, 0, 1], [0, 0, 1]]}


def test_newton_pipeline(capsys, e4_file, tmp_path):
    hull = run_json(capsys, "newton", "hull", "--input", e4_file)
    assert hull == {"vertices": [[0, 8], [2, 5], [7, 0]]}
    hull_path = tmp_path / "hull.json"
    hull_path.write_text(json.dumps(hull))
    # round-trip: a polygon file passes through the constructor unchanged
    out = run_json(capsys, "newton", "mul", "--lhs", str(hull_path), "--rhs", str(hull_path))
    back = tmp_path / "sq.json"
    back.write_text(json.dumps(out))
    again = run_json(capsys, "newton", "add", "--lhs", str(back), "--rhs", str(back))
    assert again == out
    sup = run_json(capsys, "newton", "support", "--input", str(hull_path), "--x", "1/3", "--y", "1")
    assert sup == {"value": {"a": [7, 3], "b": [0, 1], "d": 0}}


# -- arithmetic commands ---------------------------------------------------------


def test_semigroup_check(capsys):
    out = run_json(capsys, "semigroup", "--n", "3", "--m", "5", "--check", "7")
    assert out["represents"] is False and out["conductor"] == 8
    out = run_json(capsys, "semigroup", "--n", "3", "--m", "5", "--gaps")
    assert out["gaps"] == [1, 2, 4, 7]


def test_eval_command(capsys, e4_file):
    out = run_json(capsys, "eval", "--lambda", "1/3", "--input", e4_file)
    assert out["alpha"] == {"a": [7, 3], "b": [0, 1], "d": 0}
    assert out["witness"] == [7, 0]


def test_iso_command(capsys):
    assert run_json(capsys, "iso", "--l1", "2/3", "--l2", "3/2")["isomorphic"] is True
    assert run_json(capsys, "iso", "--l1", "2/3", "--l2", "3/4")["isomorphic"] is False


def test_approx_command(capsys, e4_file):
    out = run_json(capsys, "approx", "--lambda", "sqrt:2", "--depth", "4", "--input", e4_file)
    assert [s["convergent"] for s in out["steps"]] == [[1, 1], [3, 2], [7, 5], [17, 12]]


def test_compose_command(capsys):
    out = run_json(capsys, "compose", "--left", "sqrt:2", "--right", "sqrt:2")
    assert out["rho"] == "2" and out["deformed"] is True
    out = run_json(
        capsys, "compose", "--left", "1/2", "--right", "3/4", "--verify-bound", "64"
    )
    assert out["rho"] == "3/8" and out["deformed"] is False
    assert out["verification"]["ok"] is True
    # the witness (65, 0) lies past the verify bound 64, which limits nothing
    out = run_json(
        capsys, "compose", "--left", "7/5", "--right", "11/13", "--verify-bound", "64"
    )
    assert out["witnesses"] == [[65, 0], [0, 77]]
    assert out["verification"]["ok"] is True
    assert out["verification"]["rewrite"] == {"equivalent": True, "inconclusive": False, "power": 1}


def test_compose_failed_verification_exits_1(capsys, monkeypatch):
    from tropsquare import cli

    monkeypatch.setattr(cli, "verify_composition", lambda *a, **k: {"case": "stub", "ok": False})
    code, out = run_cli(capsys, "compose", "--left", "1/2", "--right", "3/4", "--verify-bound", "8")
    assert code == 1
    assert json.loads(out)["verification"] == {"case": "stub", "ok": False}
    assert run_cli(capsys, "compose", "--left", "1/2", "--right", "3/4")[0] == 0


def test_axioms_deterministic(capsys):
    args = ("axioms", "--iters", "50", "--seed", "9", "--instance", "nat-min-plus")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second and first[0] == 0
    report = json.loads(first[1])["reports"][0]
    assert report["passed"] is True


# -- exit codes --------------------------------------------------------------------


def test_domain_error_exit_code(capsys, e4_file):
    code, out = run_cli(capsys, "eval", "--lambda", "0", "--input", e4_file)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NonPositiveLambda"


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _ = run_cli(capsys, "eval", "--lambda", "1/2", "--input", str(bad))
    assert code == 2
    code, _ = run_cli(capsys, "eval", "--lambda", "worst", "--input", str(bad))
    assert code == 2
    # float and boolean coordinates are rejected, not truncated
    sets, polys = tmp_path / "sets.json", tmp_path / "polys.json"
    sets.write_text(json.dumps({"generators": [[1.7, 2], [True, 5]]}))
    polys.write_text(json.dumps({"vertices": [[1.7, 2], [True, 5]]}))
    good, hull = tmp_path / "good.json", tmp_path / "hull.json"
    good.write_text(json.dumps(E4_JSON))
    hull.write_text(json.dumps({"vertices": [[0, 8], [2, 5], [7, 0]]}))
    for argv in (
        ("iso", "--l1", "1/0", "--l2", "1"),
        ("eval", "--lambda", "1/0", "--input", str(good)),
        ("compose", "--left", "1/0", "--right", "1/2"),
        ("compose", "--left", "1/2", "--right", "1+1/0*sqrt:2"),
        ("hereditary", "weighted-degree", "--input", str(good)),
        ("hereditary", "canonicalize", "--input", str(sets)),
        ("newton", "hull", "--input", str(sets)),
        ("newton", "support", "--x", "1", "--y", "1", "--input", str(polys)),
        ("newton", "support", "--y", "1", "--input", str(hull)),
        ("axioms", "--iters", "0"),
        ("axioms", "--iters", "-5", "--instance", "nat-min-plus"),
    ):
        assert run_cli(capsys, *argv) == (2, ""), argv


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("hereditary", "rasterize", "--window", "100000"), MAX_WINDOW),
        (("figure", "--window", "100000"), MAX_WINDOW),
        (("approx", "--lambda", "sqrt:2", "--depth", str(10**6)), MAX_DEPTH),
        (("semigroup", "--n", "100003", "--m", "100019", "--gaps"), MAX_GAPS_CONDUCTOR),
    ],
)
def test_limit_exceeded_exit_code(capsys, e4_file, argv, limit):
    if argv[0] != "semigroup":
        argv += ("--input", e4_file)
    start = time.monotonic()
    code, out = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "LimitExceeded" and f"limit {limit}" in error["message"]


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_window_too_small_exit_code(capsys, e4_file):
    code, out = run_cli(capsys, "figure", "--input", e4_file, "--window", "4")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "WindowTooSmall"


# -- figures -----------------------------------------------------------------------


def test_figure_golden_bytes(capsys, e4_file, tmp_path):
    out1 = tmp_path / "fig1.svg"
    out2 = tmp_path / "fig2.svg"
    for out in (out1, out2):
        code, _ = run_cli(
            capsys,
            "figure",
            "--input",
            e4_file,
            "--lambda",
            "1/3",
            "--window",
            "9",
            "--out",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == GOLDEN.read_bytes()


def test_figure_layer_subsets(capsys, e4_file, tmp_path):
    out = tmp_path / "fig.svg"
    code, _ = run_cli(
        capsys,
        "figure",
        "--input",
        e4_file,
        "--window",
        "9",
        "--layers",
        "region,hull",
        "--out",
        str(out),
    )
    assert code == 0
    svg = out.read_text()
    assert "#2e8b57" in svg and "#cc3333" not in svg and "#3366cc" not in svg
    code, _ = run_cli(
        capsys, "figure", "--input", e4_file, "--window", "9", "--layers", "bogus"
    )
    assert code == 2


def test_figure_degenerate_regions():
    from tropsquare import FigureSpec, HereditarySet, emit_figure

    empty = emit_figure(FigureSpec(region=HereditarySet(), window=3))
    assert "polyline" not in empty and "circle" not in empty and "rect" in empty
    full = emit_figure(FigureSpec(region=HereditarySet([(0, 0)]), window=3))
    # full quadrant: every cell filled, hull reduced to the corner vertex
    assert full.count("#f2d88a") == 9 and "polyline" in full


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tropsquare", "iso", "--l1", "2", "--l2", "1/2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["isomorphic"] is True


def test_cli_import_leaves_numpy_unloaded():
    """numpy is a test dependency only; importing the CLI must not load it."""
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tropsquare.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

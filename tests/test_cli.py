import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selfsim import write_system
from selfsim.cli import main
from selfsim.presets import cantor_family, characteristic, counterexample, identity2


@pytest.fixture
def cantor_file(tmp_path):
    path = tmp_path / "cantor.json"
    write_system(cantor_family(1 / 3, 0.0), path)
    return str(path)


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter.json"
    write_system(counterexample(0.4), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys, cantor_file):
    code, out, _ = run(capsys, "validate", cantor_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    by_p = {rep["p"]: rep for rep in doc["reports"]}
    assert by_p[1.0]["r_p"] == pytest.approx(1 / 3)
    assert all(rep["contractive"] for rep in doc["reports"])


def test_validate_human(capsys, cantor_file):
    code, out, _ = run(capsys, "validate", cantor_file)
    assert code == 0
    assert "contractive" in out


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_validate_overflowing_r_p(capsys, tmp_path):
    # |d_1|^1000 overflows: r_p = inf is reported as not contractive, not an error
    path = tmp_path / "nc.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "c": [0.0, 0.0], "d": [3.0, 0.5], "beta": [0.0, 0.5]}))
    code, out, err = run(capsys, "validate", str(path), "--p", "1", "1000", "--json")
    assert code == 0 and err == ""
    by_p = {rep["p"]: rep for rep in json.loads(out)["reports"]}
    assert by_p[1000.0]["r_p"] == float("inf") and not by_p[1000.0]["contractive"]


def test_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_solve_csv(capsys, cantor_file, tmp_path):
    out_path = tmp_path / "f.csv"
    code, out, _ = run(
        capsys, "solve", cantor_file, "--p", "1", "--target-error", "1e-4",
        "--out", str(out_path), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["certified_error"] <= 1e-4
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "x,left,right"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0


def test_eval(capsys, counter_file):
    code, out, _ = run(
        capsys, "eval", counter_file, "--code", "2,1", "--end", "right", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == pytest.approx(4 / 9)
    assert doc["value"] == pytest.approx(0.5 - 0.4 / 6)


def test_norms(capsys, cantor_file):
    code, out, _ = run(capsys, "norms", cantor_file, "--p", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["measured_norm"] <= doc["bound"] + 1e-12
    assert doc["bound"] == pytest.approx(0.5)


def test_check_strict_exit(capsys, cantor_file, counter_file):
    code, out, _ = run(capsys, "check", cantor_file, "--strict")
    assert code == 0
    doc = json.loads(out)
    assert doc["continuity"]["verdict"] == "holds"
    assert doc["monotonicity"]["verdict"] == "holds"

    code, out, _ = run(capsys, "check", counter_file, "--strict")
    assert code == 1
    doc = json.loads(out)
    assert doc["monotonicity"]["verdict"] == "fails"


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
def test_check_bad_tol_exit_2(capsys, tmp_path, tol):
    # with --tol nan every residual test passed: the indicator's jumps "held"
    path = tmp_path / "ch.json"
    write_system(characteristic(0.25, 0.75), path)
    assert run(capsys, "check", str(path), "--strict")[0] == 1
    code, out, err = run(capsys, "check", str(path), "--tol", tol, "--strict")
    assert code == 2
    assert out == "" and "tol" in err


@pytest.mark.parametrize(
    "option",
    [["--target-error", "-1"], ["--target-error", "nan"], ["--max-iter", "0"], ["--piece-cap", "0"]],
)
@pytest.mark.parametrize("command", ["solve", "norms", "render"])
def test_solver_bad_numeric_options_exit_2(capsys, cantor_file, command, option):
    code, out, err = run(capsys, command, cantor_file, *option)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "c, d, beta",
    [
        ([1e308, 1e308], [0.5, 0.5], [1e308, 1e308]),  # anchors overflow
        ([1e308, 1e308], [0.5, -0.9], [0.0, 0.0]),  # closure sum overflows
    ],
)
def test_check_overflow_exit_2(capsys, tmp_path, c, d, beta):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "c": c, "d": d, "beta": beta}))
    code, out, err = run(capsys, "check", str(path), "--strict")
    assert code == 2
    assert "holds" not in out and "overflow" in err


def test_check_not_strict(capsys, counter_file):
    code, _, _ = run(capsys, "check", counter_file)
    assert code == 0


def test_variation(capsys, tmp_path):
    path = tmp_path / "fam.json"
    write_system(cantor_family(1 / 3, 0.1), path)
    code, out, _ = run(capsys, "variation", str(path), "--depth", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == pytest.approx(1.4)
    assert doc["verdict"] == "fails"
    assert doc["variation_on_mesh"] == pytest.approx(1.4**3)


def test_variation_not_applicable(capsys, tmp_path):
    path = tmp_path / "id.json"
    write_system(identity2(), path)
    code, _, err = run(capsys, "variation", str(path))
    assert code == 2
    assert "error" in err


def test_measure_table(capsys, cantor_file):
    code, out, _ = run(
        capsys, "measure", cantor_file, "--collapse", "--depth", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "code,left,right,mass"
    assert len(lines) == 1 + 4
    masses = [float(l.split(",")[3]) for l in lines[1:]]
    assert sum(masses) == pytest.approx(1.0)


def test_measure_table_depth_cap(capsys, cantor_file):
    # 2^40 rows: refused before any row is computed
    code, out, err = run(capsys, "measure", cantor_file, "--collapse", "--depth", "40")
    assert code == 2
    assert out == "" and "cap" in err


@pytest.mark.parametrize("command", [["validate"], ["check", "--strict"]])
@pytest.mark.parametrize("field", ["a", "c", "d", "beta"])
def test_non_finite_parameters_exit_2(capsys, tmp_path, command, field):
    doc = {"n": 2, "a": [0.5, 0.5], "c": [0.0, 0.0], "d": [0.5, 0.5], "beta": [0.0, 0.5]}
    doc[field][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert "holds" not in out and "finite" in err


def test_measure_samples(capsys, cantor_file, tmp_path):
    out_path = tmp_path / "xs.txt"
    code, _, _ = run(
        capsys, "measure", cantor_file, "--collapse", "--samples", "50",
        "--seed", "11", "--out", str(out_path),
    )
    assert code == 0
    xs = np.loadtxt(out_path)
    assert xs.shape == (50,)
    assert ((xs >= 0) & (xs <= 1)).all()
    # no sample lands in the removed middle third
    assert not ((xs > 1 / 3) & (xs < 2 / 3)).any()


def test_render(capsys, cantor_file, tmp_path):
    out_path = tmp_path / "render.csv"
    code, _, _ = run(
        capsys, "render", cantor_file, "--points", "65", "--target-error",
        "1e-3", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,left,right"
    assert len(lines) >= 66


def test_preset_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "b.json"
    code, _, _ = run(capsys, "preset", "bernoulli", "0.25", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["d"] == [0.25, 0.75]

    code, _, err = run(capsys, "preset", "bernoulli", "--out", str(out_path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "options, stop",
    [
        (["--target-error", "1e-4"], "target"),
        (["--target-error", "1e-30", "--max-iter", "3"], "max_depth"),
        (["--target-error", "1e-30", "--piece-cap", "100"], "piece_cap"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "norms"])
def test_stop_reason_in_json(capsys, cantor_file, tmp_path, command, options, stop):
    out_path = tmp_path / "f.csv"
    extra = ["--out", str(out_path)] if command == "solve" else []
    code, out, _ = run(capsys, command, cantor_file, "--p", "1", *options, *extra, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["stop"] == stop
    assert doc["converged"] is (stop == "target")
    if command == "solve":
        assert out_path.read_text().splitlines()[0].endswith(f" stop={stop}")


@pytest.mark.parametrize("command", ["solve", "norms", "render"])
def test_solve_overflow_exit_2(capsys, tmp_path, command):
    # the iterates overflow: before, solve ran to --max-iter with error nan
    path = tmp_path / "big.json"
    big = {"a": [0.5, 0.5], "c": [1e308, 1e308], "d": [0.5, 0.5], "beta": [1e308, 1e308]}
    path.write_text(json.dumps(big))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, command, str(path), "--p", "inf", "--max-iter", "10", "--json")
    assert code == 2
    assert out == "" and "finite" in err


@pytest.mark.parametrize("command", ["solve", "norms", "render", "check"])
def test_overflow_is_one_error_line(tmp_path, command):
    # a child process with numpy's default error handling: before, solve,
    # norms and render printed 4-5 RuntimeWarnings ahead of the error line
    path = tmp_path / "big.json"
    big = {"a": [0.5, 0.5], "c": [1e308, 1e308], "d": [0.5, 0.5], "beta": [1e308, 1e308]}
    path.write_text(json.dumps(big))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "selfsim.cli", command, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "RuntimeWarning" not in proc.stderr

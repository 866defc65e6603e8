"""Command-line interface: outputs, exit codes, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oscent.cli import main
from oscent.experiments import SweepTable, read_sweep_csv, saturation_curve
from oscent.models import TwoMode, GeneralizedChain, save_model

PURITY_REF = 0.967545386773935
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def two_mode_file(tmp_path):
    path = tmp_path / "pair.json"
    save_model(TwoMode(A=5.0, B=20.0, C=10.0), path)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    k = np.array([[2.0, 0.4, 0.0], [0.4, 2.0, 0.4], [0.0, 0.4, 2.0]])
    save_model(GeneralizedChain(K=k, Y=np.zeros(3)), path)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- happy paths ------------------------------------------------------------

def test_twomode_sweep_stdout(capsys):
    code, out, err = run(["twomode-sweep", "--grid", "0:10:3",
                          "--alphas", "2"], capsys)
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "C,sigma,purity,linear_entropy,von_neumann,mu_2,tsallis_2,renyi_2"
    assert len(lines) == 4
    assert "-0" not in out.split(",")  # no negative zeros in the report


def test_twomode_sweep_json(capsys):
    code, out, _ = run(["twomode-sweep", "--grid", "0:10:2", "--alphas", "2",
                        "--json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    assert records[0]["C"] == 0.0
    assert_allclose(records[1]["sigma"], 0.5167716231557249, rtol=1e-12)


def test_twomode_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(["twomode-sweep", "--grid", "0:15:4",
                        "--out", str(path)], capsys)
    assert code == 0 and out == ""
    raw = path.read_bytes()
    assert b"\r" not in raw
    table = read_sweep_csv(path)
    assert len(table.rows) == 4


def test_ghoc_sweep_runs(capsys):
    code, out, _ = run(["ghoc-sweep", "--grid", "0:1:3"], capsys)
    assert code == 0
    assert out.startswith("Y2,sigma,")


def test_lattice_commands_run_small(capsys):
    for argv in (
        ["lattice-d", "--N", "40", "--n1", "10", "--n2", "10",
         "--kappas", "4", "--grid", "0:20:3"],
        ["lattice-adjacent", "--N", "40", "--block", "20", "--kappas", "4",
         "--grid", "0:20:3"],
        ["lattice-size", "--kappas", "4", "--grid", "20:40:3"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert len(out.strip().split("\n")) == 4


def test_measures_subsystem(two_mode_file, capsys):
    code, out, _ = run(["measures", "--model", two_mode_file,
                        "--subsystem", "1", "--alphas", "2", "--json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["subsystem"] == "1"
    assert_allclose(record["purity"], PURITY_REF, rtol=1e-12)


def test_measures_whole_system_default(two_mode_file, capsys):
    code, out, _ = run(["measures", "--model", two_mode_file, "--json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["subsystem"] == "1+2"
    assert_allclose(record["purity"], 1.0, atol=1e-12)


def test_negativity_groups(chain_file, capsys):
    code, out, _ = run(["negativity", "--model", chain_file,
                        "--group1", "1", "--group2", "2,3", "--json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["group1"] == "1" and record["group2"] == "2+3"
    assert record["log_negativity"] > 0.0


def test_fit_cft_from_csv(tmp_path, capsys):
    n1 = np.arange(5, 100, 5, dtype=float)
    x = np.log((100 / np.pi) * np.sin(np.pi * n1 / 100))
    rows = [(v, 4.0, (2.5 / 4.0) * xi + 1.0, 0.0) for v, xi in zip(n1, x)]
    rows += [(v, 8.0, (3.0 / 4.0) * xi + 0.5, 0.0) for v, xi in zip(n1, x)]
    path = tmp_path / "adj.csv"
    SweepTable(("n1", "kappa", "log_negativity", "negativity"),
               tuple(rows)).write_csv(path)

    code, out, _ = run(["fit-cft", "--in", str(path), "--kappa", "8",
                        "--json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert_allclose(record["b1"], 3.0, rtol=1e-9)
    assert_allclose(record["b2"], 0.5, rtol=1e-9)
    assert record["kappa"] == 8.0


def test_fit_kappa_from_csv(tmp_path, capsys):
    kappa = np.geomspace(1.0, 64.0, 16)
    e = saturation_curve(kappa, 2.458, 2.149, 0.641, 0.875)
    rows = [(500.0, ka, ei, 0.0) for ka, ei in zip(kappa, e)]
    rows += [(250.0, 1.0, 0.3, 0.0)]
    path = tmp_path / "size.csv"
    SweepTable(("N", "kappa", "log_negativity", "negativity"),
               tuple(rows)).write_csv(path)

    code, out, _ = run(["fit-kappa", "--in", str(path), "--json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["N"] == 500.0  # defaults to the largest N present
    assert_allclose([record[k] for k in "abcd"],
                    [2.458, 2.149, 0.641, 0.875], rtol=1e-5)


def test_console_script_installed(tmp_path, monkeypatch):
    # Run the `oscent` command declared in pyproject.toml as its own process,
    # through a wrapper of the shape pip writes for a console script, so that
    # a source checkout needs no install and a broken declaration fails here.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["oscent"]
    module, func = entry.split(":")
    script = tmp_path / "oscent"
    script.write_text(f"#!{sys.executable}\n"
                      f"import sys\n"
                      f"from {module} import {func}\n"
                      f"sys.exit({func}())\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join(
        [str(tmp_path), os.environ.get("PATH", "")]))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    proc = subprocess.run(["oscent", "twomode-sweep", "--grid", "0:10:2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("C,sigma,")


# --- input errors (exit 2) -----------------------------------------------------

def test_bad_grid_string(capsys):
    code, _, err = run(["twomode-sweep", "--grid", "0:10"], capsys)
    assert code == 2 and "grid" in err


@pytest.mark.parametrize("command", ["lattice-d", "lattice-adjacent", "lattice-size"])
def test_lattice_commands_have_no_alphas_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--alphas", "nonsense"])
    assert exc.value.code == 2
    assert "--alphas" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lattice-d", "lattice-adjacent", "lattice-size"])
def test_lattice_grid_must_hold_integers(command, capsys):
    code, out, err = run([command, "--grid", "0:1:4"], capsys)
    assert code == 2 and out == ""
    assert "grid '0:1:4' must hold integers" in err


@pytest.mark.parametrize("flag, value", [("--k", "nan"), ("--k", "inf"),
                                         ("--kappas", "inf"), ("--kappas", "nan")])
def test_non_finite_ring_parameters_exit_two(flag, value, capsys):
    code, _, err = run(["lattice-size", "--kappas", "4", "--grid", "20:20:1",
                        flag, value], capsys)
    assert code == 2 and "finite" in err


def test_missing_model_file(tmp_path, capsys):
    code, _, err = run(["measures", "--model", str(tmp_path / "nope.json")],
                       capsys)
    assert code == 2 and "error:" in err


def test_invalid_model_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["measures", "--model", str(path)], capsys)
    assert code == 2 and "JSON" in err


def test_overlapping_groups(chain_file, capsys):
    code, _, err = run(["negativity", "--model", chain_file,
                        "--group1", "1,2", "--group2", "2,3"], capsys)
    assert code == 2 and "error:" in err


def test_zero_index_rejected(chain_file, capsys):
    code, _, err = run(["negativity", "--model", chain_file,
                        "--group1", "0", "--group2", "2"], capsys)
    assert code == 2 and "1-based" in err


def test_subsystem_index_out_of_range(two_mode_file, capsys):
    code, _, err = run(["measures", "--model", two_mode_file,
                        "--subsystem", "3"], capsys)
    assert code == 2 and "error:" in err


def test_fit_cft_missing_kappa(tmp_path, capsys):
    n1 = np.arange(5, 100, 5, dtype=float)
    rows = [(v, 4.0, 0.1 * v, 0.0) for v in n1]
    path = tmp_path / "adj.csv"
    SweepTable(("n1", "kappa", "log_negativity", "negativity"),
               tuple(rows)).write_csv(path)
    code, _, err = run(["fit-cft", "--in", str(path), "--kappa", "16"], capsys)
    assert code == 2 and "kappa = 16" in err


# --- numerical errors (exit 3) ---------------------------------------------------

def test_unstable_sweep_exits_three(capsys):
    code, _, err = run(["ghoc-sweep", "--grid", "0:1.7:18"], capsys)
    assert code == 3 and "error:" in err


def test_unpinned_ring_exits_three(capsys):
    # k = 0 leaves the uniform-translation mode at zero frequency.
    code, _, err = run(["lattice-size", "--k", "0", "--kappas", "4",
                        "--grid", "20:20:1"], capsys)
    assert code == 3 and "stable" in err


def test_oversized_block_exits_two(capsys):
    code, _, err = run(["lattice-adjacent", "--N", "40", "--grid", "0:20:3"],
                       capsys)
    assert code == 2 and "block" in err

"""Command-line interface: outputs, exit codes, file round trips."""

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oscent import cli, experiments
from oscent.cli import build_parser, main
from oscent.experiments import SweepTable, read_sweep_csv, saturation_curve
from oscent.measures import DEFAULT_ALPHAS
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


def source_env():
    """Environment for running the package from this checkout as a process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the parser -------------------------------------------------------------

# Per command: the flags it needs, and then a value for every flag it has.
REQUIRED = {
    "twomode-sweep": [], "ghoc-sweep": [], "lattice-d": [], "lattice-adjacent": [],
    "lattice-size": [],
    "fit-cft": ["--in", "adj.csv", "--kappa", "4"],
    "fit-kappa": ["--in", "size.csv"],
    "measures": ["--model", "m.json"],
    "negativity": ["--model", "m.json", "--group1", "1", "--group2", "2"],
}
COMMON = ["--grid", "1:3:3", "--out", "o.csv", "--json"]
EVERY_FLAG = {
    "twomode-sweep": ["--A", "1", "--B", "2", "--alphas", "2,3"] + COMMON,
    "ghoc-sweep": ["--X1", "1", "--X2", "3", "--Y1", "0.5", "--Z", "2",
                   "--alphas", "2"] + COMMON,
    "lattice-d": ["--N", "40", "--k", "0.2", "--n1", "5", "--n2", "6",
                  "--kappas", "1,2"] + COMMON,
    "lattice-adjacent": ["--N", "40", "--k", "0.2", "--block", "20",
                         "--kappas", "1"] + COMMON,
    "lattice-size": ["--k", "0.2", "--n1", "5", "--n2", "4", "--kappas", "1"] + COMMON,
    "fit-cft": REQUIRED["fit-cft"] + ["--block", "50", "--out", "o.csv", "--json"],
    "fit-kappa": REQUIRED["fit-kappa"] + ["--N", "40", "--out", "o.csv", "--json"],
    "measures": REQUIRED["measures"] + ["--subsystem", "1,2", "--alphas", "2",
                                        "--out", "o.csv", "--json"],
    "negativity": REQUIRED["negativity"] + ["--out", "o.csv", "--json"],
}
REFUSALS = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "unknown-flag": ["fit-cft", "--in", "adj.csv", "--kappa", "4", "--bogus"],
    "missing-in": ["fit-kappa"],
    "missing-kappa": ["fit-cft", "--in", "adj.csv"],
}


def subparsers(parser):
    """name -> subparser, in help order."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_flag_table_covers_every_command_and_flag():
    full = subparsers(build_parser())
    assert list(full) == list(EVERY_FLAG)
    for name, parser in full.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        given = {arg for arg in EVERY_FLAG[name] if arg.startswith("--")}
        assert flags - {"-h", "--help"} == given, name


def test_a_named_command_builds_its_subparser_alone():
    names = list(subparsers(build_parser()))
    assert list(cli._COMMANDS) == names
    for name in names:
        assert list(subparsers(build_parser(name))) == [name]


@pytest.mark.parametrize("flags", [REQUIRED, EVERY_FLAG], ids=["defaults", "every-flag"])
@pytest.mark.parametrize("command", list(EVERY_FLAG))
def test_main_parses_as_the_full_parser(command, flags, monkeypatch):
    argv = [command] + flags[command]
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(args) or 0)
    assert main(argv) == 0
    assert seen == [build_parser().parse_args(argv)]


@pytest.mark.parametrize("command", list(EVERY_FLAG))
def test_subcommand_help_is_the_full_parsers(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == subparsers(build_parser())[command].format_help()


@pytest.mark.parametrize("argv", REFUSALS.values(), ids=list(REFUSALS))
def test_argparse_refusals_are_the_full_parsers(argv, monkeypatch, capsys):
    # The usage line of a refusal by the top-level parser names every command.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    want = capsys.readouterr().err
    assert "error: " in want
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", want)


# --- forwarding to the library ---------------------------------------------

# Per command that forwards flags: the library function it calls, and the
# keywords that EVERY_FLAG's values must arrive as, with their parsed types.
FORWARDED = {
    "twomode-sweep": ("sweep_two_mode_coupling", {"a": 1.0, "b": 2.0, "alphas": (2.0, 3.0)}),
    "ghoc-sweep": ("sweep_ghoc_y2",
                   {"x1": 1.0, "x2": 3.0, "y1": 0.5, "z": 2.0, "alphas": (2.0,)}),
    "lattice-d": ("lattice_disjoint_sweep",
                  {"n": 40, "k": 0.2, "n1": 5, "n2": 6, "kappas": (1.0, 2.0)}),
    "lattice-adjacent": ("lattice_adjacent_sweep",
                         {"n": 40, "k": 0.2, "block": 20, "kappas": (1.0,)}),
    "lattice-size": ("lattice_size_sweep", {"k": 0.2, "n1": 5, "n2": 4, "kappas": (1.0,)}),
    "fit-cft": ("fit_adjacent_cft", {"block": 50}),
}


@pytest.mark.parametrize("flags", [REQUIRED, EVERY_FLAG], ids=["defaults", "every-flag"])
@pytest.mark.parametrize("command", list(FORWARDED))
def test_flags_reach_the_library_as_its_keywords(command, flags, tmp_path, monkeypatch):
    # A flag left off passes no keyword, so the library's default holds; a
    # flag given arrives as its keyword, parsed, and none is dropped.
    name, every = FORWARDED[command]
    fn = getattr(experiments, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        inspect.signature(fn).bind(*args, **kwargs)
        if name == "fit_adjacent_cft":
            return experiments.FitResult({"b1": 1.0, "b2": 0.0}, 0.0, ())
        return SweepTable(("x",), ((1.0,),))

    monkeypatch.setattr(experiments, name, spy)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adj.csv").write_text("n1,kappa,log_negativity\n1,4,0.5\n")
    argv = [command] + flags[command]
    assert main(argv) == 0
    want = every if flags is EVERY_FLAG else {}
    assert calls == [want]
    assert {k: type(v) for k, v in calls[0].items()} == {k: type(v) for k, v in want.items()}


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


def test_json_output_is_strict_json(tmp_path, capsys):
    # The alpha = 1 column mu_1 is NaN; JSON has no NaN, so it must be null.
    def no_constants(token):
        raise ValueError(f"bare {token} is not JSON")

    path = tmp_path / "sweep.json"
    code, out, _ = run(["twomode-sweep", "--grid", "0:10:2", "--json"], capsys)
    assert code == 0
    assert run(["twomode-sweep", "--grid", "0:10:2", "--json", "--out", str(path)],
               capsys)[0] == 0
    for text in (out, path.read_text()):
        records = json.loads(text, parse_constant=no_constants)
        assert [r["mu_1"] for r in records] == [None, None]
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


def test_measures_json_keeps_every_order(chain_file, capsys):
    # Each order's columns used to be named alpha, mu, tsallis and renyi,
    # so every JSON record kept only the last order, alpha = 64.
    code, out, _ = run(["measures", "--model", chain_file, "--subsystem", "1,2"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    code, out, _ = run(["measures", "--model", chain_file, "--subsystem", "1,2", "--json"],
                       capsys)
    assert code == 0
    (record,) = json.loads(out)
    tags = [f"{alpha:g}" for alpha in DEFAULT_ALPHAS]
    assert len(tags) == 8
    assert header.split(",") == list(record) == (
        ["subsystem", "purity", "linear_entropy", "von_neumann"]
        + [f"{name}_{tag}" for tag in tags for name in ("mu", "tsallis", "renyi")])
    assert record["mu_1"] is None
    for name, cell in zip(header.split(",")[1:], row.split(",")[1:]):
        if record[name] is not None:
            assert record[name] == float(cell), name
    # Orders come in the order given.
    code, out, _ = run(["measures", "--model", chain_file, "--alphas", "4,2"], capsys)
    assert code == 0
    assert out.split("\n")[0].endswith(",mu_4,tsallis_4,renyi_4,mu_2,tsallis_2,renyi_2")


def test_negativity_groups(chain_file, capsys):
    code, out, _ = run(["negativity", "--model", chain_file,
                        "--group1", "1", "--group2", "2,3", "--json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["group1"] == "1" and record["group2"] == "2+3"
    assert record["log_negativity"] > 0.0


def test_y_coupled_model_matches_its_unsheared_twin(tmp_path, capsys):
    # negativity refused every Y-coupled model (exit 3) before the shear
    # was undone; both commands must now agree with the Y = 0 chain that has
    # the same normal modes, K - Y**2.
    k = np.array([[2.0, 0.4, 0.0], [0.4, 2.0, 0.4], [0.0, 0.4, 2.0]])
    y = np.array([0.5, -0.3, 0.2])
    coupled, free = tmp_path / "coupled.json", tmp_path / "free.json"
    save_model(GeneralizedChain(K=k + np.diag(y**2), Y=y), coupled)
    save_model(GeneralizedChain(K=k, Y=np.zeros(3)), free)
    for argv in (["negativity", "--group1", "1", "--group2", "2,3"],
                 ["measures", "--subsystem", "1,2"],
                 ["measures"]):
        records = []
        for path in (coupled, free):
            code, out, err = run(argv + ["--model", str(path), "--json"], capsys)
            assert code == 0 and err == ""
            records.append(json.loads(out)[0])
        got, want = records
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert_allclose(got[key], value, rtol=1e-12, atol=1e-12)
            else:
                assert got[key] == value
    assert want["purity"] == pytest.approx(1.0)


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


def test_closed_stdout_ends_quietly_with_exit_zero():
    # The reader takes one line and closes the pipe, as `| head -n 1` does;
    # the rest of the output (well beyond a pipe buffer) cannot be written.
    proc = subprocess.Popen([sys.executable, "-m", "oscent.cli", "twomode-sweep",
                             "--grid", "0:10:400", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=source_env())
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


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


def test_non_finite_coupling_grid_exits_two(capsys):
    code, out, err = run(["twomode-sweep", "--grid", "0:nan:3"], capsys)
    assert code == 2 and out == ""
    assert "field 'C': must be finite" in err


@pytest.mark.parametrize("grid", ["0:inf:2", "-inf:0:2", "inf:inf:1"])
def test_infinite_grid_endpoint_exits_two_with_clean_stderr(grid):
    # As its own process, so that a numpy warning printed on the way would
    # show on stderr.
    proc = subprocess.run([sys.executable, "-m", "oscent.cli", "twomode-sweep",
                           f"--grid={grid}"], capture_output=True, text=True,
                          env=source_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: grid {grid!r} has an infinite endpoint\n"


def test_non_finite_model_file_exits_two(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text('{"variant": "GeneralizedChain", "K": [[2.0, NaN], [NaN, 2.0]], '
                    '"Y": [0.0, 0.0]}')
    code, _, err = run(["measures", "--model", str(path)], capsys)
    assert code == 2 and "non-finite" in err


HUGE = "1" + "0" * 400  # an integer beyond the largest double


@pytest.mark.parametrize("doc", [
    f'{{"variant": "TwoMode", "A": {HUGE}, "B": 20, "C": 1}}',
    f'{{"variant": "GeneralizedChain", "K": [[{HUGE}, 0], [0, 1]], "Y": [0, 0]}}',
    f'{{"variant": "CircularLattice", "N": 6, "k": {HUGE}, "kappa": 1}}',
    '{"variant": "TwoMode", "A": 1, "B": 2, "C": 1e200}',
], ids=["TwoMode-A", "chain-K", "ring-k", "TwoMode-C-squared"])
def test_huge_number_in_a_model_file_exits_two(tmp_path, capsys, doc):
    # Each used to end in an OverflowError traceback with exit code 1.
    path = tmp_path / "model.json"
    path.write_text(doc)
    code, _, err = run(["measures", "--model", str(path)], capsys)
    assert code == 2 and "error:" in err


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


def test_overlapping_groups_are_named_as_typed(two_mode_file, capsys):
    # Indices on the command line are 1-based, and so is the refusal.
    code, out, err = run(["negativity", "--model", two_mode_file,
                          "--group1", "1", "--group2", "1,2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: groups share oscillators [1]\n"


def test_zero_index_rejected(chain_file, capsys):
    code, _, err = run(["negativity", "--model", chain_file,
                        "--group1", "0", "--group2", "2"], capsys)
    assert code == 2 and "1-based" in err


@pytest.mark.parametrize("argv", [
    ["negativity", "--group1", "1", "--group2", "4"],
    ["measures", "--subsystem", "2,4"],
])
def test_index_error_names_the_index_as_typed(argv, chain_file, capsys):
    code, out, err = run(argv[:1] + ["--model", chain_file] + argv[1:], capsys)
    assert code == 2 and out == ""
    assert one_error_line(err) and "oscillator 4 outside 1..3" in err


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


@pytest.mark.parametrize("argv, message", [
    (["twomode-sweep", "--grid", "0:1:0"], "grid needs at least one step, got 0"),
    (["fit-kappa", "--in", "{size}", "--N", "7"], "no rows with N = 7.0 in {size}"),
])
def test_an_empty_selection_exits_two(argv, message, tmp_path, capsys):
    size = tmp_path / "size.csv"
    SweepTable(("N", "kappa", "log_negativity", "negativity"),
               tuple((100.0, 2.0**j, 0.1 * j, 0.0) for j in range(5))).write_csv(size)
    code, out, err = run([a.format(size=size) for a in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(size=size)}\n")


def test_fit_cft_refuses_rows_outside_the_block(tmp_path, capsys):
    # A 100-site block fitted as --block 50: every n1 > 50 used to be
    # dropped without a word.
    n1 = np.arange(0, 101, dtype=float)
    rows = [(v, 4.0, 0.01 * v * (100.0 - v), 0.0) for v in n1]
    path = tmp_path / "adj.csv"
    SweepTable(("n1", "kappa", "log_negativity", "negativity"),
               tuple(rows)).write_csv(path)
    code, out, err = run(["fit-cft", "--in", str(path), "--kappa", "4",
                          "--block", "50"], capsys)
    assert code == 2 and out == ""
    assert one_error_line(err) and "n1 = 51 outside [0, 50]" in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_fit_cft_refuses_a_non_finite_cell(cell, tmp_path, capsys):
    # A NaN cell used to give the row nan,nan,nan,4 and exit 0.
    n1 = np.arange(0, 101, dtype=float)
    rows = [(v, 4.0, float(cell) if v == 37 else 0.01 * v * (100.0 - v), 0.0) for v in n1]
    path = tmp_path / "adj.csv"
    SweepTable(("n1", "kappa", "log_negativity", "negativity"),
               tuple(rows)).write_csv(path)
    code, out, err = run(["fit-cft", "--in", str(path), "--kappa", "4"], capsys)
    assert code == 2 and out == ""
    assert one_error_line(err) and f"E_N = {cell} at n1 = 37 is not finite" in err


@pytest.mark.parametrize("column, cell", [(2, "nan"), (2, "inf"), (1, "nan")])
def test_fit_kappa_refuses_a_non_finite_cell(column, cell, tmp_path, capsys):
    # A NaN E_N used to run out 500 iterations and exit 3.
    kappa = np.geomspace(1.0, 64.0, 16)
    rows = [[500.0, ka, ei, 0.0]
            for ka, ei in zip(kappa, saturation_curve(kappa, 2.458, 2.149, 0.641, 0.875))]
    rows[6][column] = float(cell)
    path = tmp_path / "size.csv"
    SweepTable(("N", "kappa", "log_negativity", "negativity"),
               tuple(map(tuple, rows))).write_csv(path)
    code, out, err = run(["fit-kappa", "--in", str(path)], capsys)
    assert code == 2 and out == ""
    named = f"kappa = {cell} at point 6" if column == 1 else f"E_N = {cell} at kappa = "
    assert one_error_line(err) and named in err


def fit_kappa_at_n100(kappa, e, tmp_path, capsys):
    """fit-kappa's exit code, stdout and stderr on rows of N = 100."""
    rows = [(100.0, ka, ej, 0.0) for ka, ej in zip(kappa, e)]
    path = tmp_path / "size.csv"
    SweepTable(("N", "kappa", "log_negativity", "negativity"), tuple(rows)).write_csv(path)
    return run(["fit-kappa", "--in", str(path)], capsys)


def test_fit_kappa_that_cannot_fit_exits_three_with_one_error_line(tmp_path, capsys):
    # Trial steps overflow kappa**c here; numpy's RuntimeWarnings used to
    # print before the error line (and, with warnings as errors, escape main).
    e = [0.9, -0.7, -1.3, -0.6, 0.0, -2.3, -0.2]
    code, out, err = fit_kappa_at_n100([2.0**j for j in range(7)], e, tmp_path, capsys)
    assert (code, out) == (3, "")
    assert err == "error: asymptote fit did not converge in 500 iterations\n"


def test_fit_kappa_that_gives_up_early_names_its_stop(tmp_path, capsys):
    # The damping passes 1e12 long before the iteration cap.
    code, out, err = fit_kappa_at_n100([0.11, 0.15, 0.95, 2.27, 76.14],
                                       [-0.8, 0.1, -2.4, 0.7, -0.7], tmp_path, capsys)
    assert (code, out) == (3, "")
    assert err == "error: asymptote fit gave up after 22 iterations: its damping passed 1e12\n"


@pytest.mark.parametrize("command, table, missing", [
    ("fit-cft", "N", "n1"),      # a lattice-size table
    ("fit-kappa", "n1", "N"),    # a lattice-adjacent table
])
def test_fit_names_the_missing_column(command, table, missing, tmp_path, capsys):
    rows = [(20.0 + j, 4.0, 0.1 * j, 0.0) for j in range(12)]
    path = tmp_path / "sweep.csv"
    SweepTable((table, "kappa", "log_negativity", "negativity"),
               tuple(rows)).write_csv(path)
    argv = [command, "--in", str(path)] + (["--kappa", "4"] if command == "fit-cft" else [])
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert one_error_line(err)
    assert f"no column '{missing}'" in err
    assert f"its columns are {table}, kappa, log_negativity, negativity" in err


@pytest.mark.parametrize("command", ["fit-cft", "fit-kappa"])
@pytest.mark.parametrize("bad_row, cells", [("40,4", 2), ("40,4,0.2,0,9", 5)])
def test_fit_refuses_a_row_of_the_wrong_length(command, bad_row, cells, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text("n1,N,kappa,log_negativity\n10,20,4,0.1\n" + bad_row + "\n20,20,4,0.3\n")
    argv = [command, "--in", str(path)] + (["--kappa", "4"] if command == "fit-cft" else [])
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert one_error_line(err) and f"line 3: {cells} cells under a header of 4" in err


@pytest.mark.parametrize("command", ["fit-cft", "fit-kappa"])
def test_fit_refuses_a_non_numeric_cell(command, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text("n1,N,kappa,log_negativity\n10,20,4,0.1\n\n20,20,4,abc\n")
    argv = [command, "--in", str(path)] + (["--kappa", "4"] if command == "fit-cft" else [])
    assert run(argv, capsys) == (2, "", "error: could not convert string to float: 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["lattice-size", "--k", "1e308", "--kappas", "5e307"],
    ["lattice-d", "--kappas", "1e308", "--grid", "0:0:1"],
    ["measures", "--model", "ring.json"],
])
def test_overflowing_ring_frequencies_exit_two_with_clean_stderr(argv, tmp_path):
    # As its own process, so that a numpy overflow warning would show.
    (tmp_path / "ring.json").write_text(
        '{"variant": "CircularLattice", "N": 12, "k": 0.1, "kappa": 1e308}')
    proc = subprocess.run([sys.executable, "-m", "oscent.cli"] + argv, cwd=tmp_path,
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert one_error_line(proc.stderr) and "field 'kappa': k + 4*kappa" in proc.stderr


@pytest.mark.parametrize("doc, field", [
    ('{"variant": "TwoModeGeneralized", "X1": 2, "X2": 2, "Y1": 1e200, "Y2": 0, "Z": 1}',
     "Y1"),
    ('{"variant": "GeneralizedChain", "K": [[1, 0], [0, 1]], "Y": [0, 1e200]}', "Y"),
], ids=["two-mode-Y1", "chain-Y"])
def test_overflowing_coupling_exits_two_with_clean_stderr(doc, field, tmp_path):
    # As its own process, so that a numpy overflow warning would show.
    (tmp_path / "model.json").write_text(doc)
    proc = subprocess.run([sys.executable, "-m", "oscent.cli", "measures",
                           "--model", "model.json"], cwd=tmp_path,
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert one_error_line(proc.stderr)
    assert f"field '{field}': {field}**2 overflows" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["ghoc-sweep", "--X1", "1e308", "--Z", "1e308"],
    ["measures", "--model", "model.json"],
    ["negativity", "--model", "model.json", "--group1", "1", "--group2", "2"],
], ids=["ghoc-sweep", "measures", "negativity"])
def test_overflowing_stiffness_exits_two_with_clean_stderr(argv, tmp_path):
    # As its own process, so that a numpy overflow warning would show.
    (tmp_path / "model.json").write_text(
        '{"variant": "TwoModeGeneralized", "X1": 1e308, "X2": 2, "Y1": 0, "Y2": 0, '
        '"Z": 1e308}')
    proc = subprocess.run([sys.executable, "-m", "oscent.cli"] + argv, cwd=tmp_path,
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert one_error_line(proc.stderr) and "field 'X1': X1 + Z - Y1**2 overflows" in proc.stderr


@pytest.mark.parametrize("argv, order", [
    (["twomode-sweep", "--grid", "19:19:1", "--alphas", "3000,5000"], "5000"),
    (["twomode-sweep", "--grid", "19:19:1", "--alphas", "3000,5000", "--json"], "5000"),
    (["twomode-sweep", "--grid", "19:19:1", "--alphas", "1e-320"], f"{1e-320:g}"),
    (["measures", "--model", "ring.json", "--subsystem", "6,1", "--alphas", "1e20"], "1e+20"),
], ids=["large-order", "large-order-json", "tiny-order", "measures-large-order"])
def test_overflowing_alpha_order_exits_two_with_clean_stderr(argv, order, tmp_path):
    # As its own process, so that a numpy overflow warning would show. The
    # Renyi value of the large orders, and every value of the tiny one, left
    # the double range and was written as inf (null in JSON) with exit 0.
    (tmp_path / "ring.json").write_text(
        '{"variant": "CircularLattice", "N": 7, "k": 100, "kappa": 1}')
    proc = subprocess.run([sys.executable, "-m", "oscent.cli"] + argv, cwd=tmp_path,
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert one_error_line(proc.stderr) and f"order {order} " in proc.stderr


def test_large_order_inside_the_double_range_keeps_its_row(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "oscent.cli", "twomode-sweep", "--grid",
                           "19:19:1", "--alphas", "3000"], cwd=tmp_path,
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        "C,sigma,purity,linear_entropy,von_neumann,mu_3000,tsallis_3000,renyi_3000\n"
        "19,0.69373054627751918,0.72074093130675043,0.27925906869324957,"
        "0.52935719537409853,1.9101989093404177e-231,0.00033344448149383126,"
        "0.17714236382259835\n")


def one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("n", ["0", "2"])
def test_ring_of_fewer_than_three_sites_exits_two(n, capsys):
    code, out, err = run(["lattice-d", "--N", n, "--grid", "0:0:1"], capsys)
    assert code == 2 and out == "" and one_error_line(err)
    assert "field 'N'" in err


@pytest.mark.parametrize("argv", [
    ["lattice-d", "--n1", "-5", "--grid", "0:0:1"],
    ["lattice-d", "--n2", "-5", "--grid", "0:0:1"],
    ["lattice-size", "--n1", "-5", "--grid", "20:20:1"],
    ["lattice-size", "--n2", "-5", "--grid", "20:20:1"],
    ["lattice-adjacent", "--block", "-5", "--grid", "0:0:1"],
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_negative_window_exits_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {argv[1][2:]} = -5: a window cannot have negative size\n"


def test_fit_cft_refuses_a_negative_block(tmp_path, capsys):
    # Before the rows are read against it: they fit no block of -1 sites.
    path = tmp_path / "adj.csv"
    assert main(["lattice-adjacent", "--N", "20", "--block", "10", "--kappas", "4",
                 "--grid", "0:10:11", "--out", str(path)]) == 0
    code, out, err = run(["fit-cft", "--in", str(path), "--kappa", "4", "--block", "-1"],
                         capsys)
    assert code == 2 and out == ""
    assert err == "error: block = -1: a window cannot have negative size\n"


def test_empty_window_is_still_a_group(capsys):
    code, out, err = run(["lattice-d", "--N", "20", "--n1", "0", "--n2", "5",
                          "--kappas", "4", "--grid", "0:0:1"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["0,4,0,0"]


@pytest.mark.parametrize("argv, flag", [
    (["lattice-d", "--kappas", ","], "--kappas"),
    (["lattice-d", "--kappas", ""], "--kappas"),
    (["lattice-adjacent", "--kappas", " , "], "--kappas"),
    (["lattice-size", "--kappas", ""], "--kappas"),
    (["twomode-sweep", "--alphas", ","], "--alphas"),
    (["twomode-sweep", "--alphas", ""], "--alphas"),
    (["ghoc-sweep", "--alphas", ""], "--alphas"),
])
def test_empty_list_flag_exits_two(argv, flag, capsys):
    code, out, err = run(argv + ["--grid", "20:20:1"], capsys)
    assert code == 2 and out == "" and one_error_line(err)
    assert flag in err


@pytest.mark.parametrize("argv", [
    ["twomode-sweep", "--grid", "0:1:2", "--alphas", "2,2"],
    ["ghoc-sweep", "--grid", "0:1:2", "--alphas", "2,4,2.0"],
    ["measures", "--model", "{model}", "--alphas", "2,2"],
])
def test_repeated_alpha_exits_two(argv, two_mode_file, capsys):
    # The sweeps wrote the order's three columns twice; measures dropped the repeat.
    code, out, err = run([a.format(model=two_mode_file) for a in argv], capsys)
    assert code == 2 and out == "" and err == "error: alphas repeat the order 2\n"


@pytest.mark.parametrize("argv", [["twomode-sweep", "--grid", "0:1:2"],
                                  ["ghoc-sweep", "--grid", "0:1:2"],
                                  ["measures", "--model", "{model}"]],
                         ids=["twomode-sweep", "ghoc-sweep", "measures"])
def test_alphas_that_name_one_column_exit_two(argv, two_mode_file, capsys):
    # 2 and 2.0000001 both print as 2: the three columns came out twice.
    argv = [a.format(model=two_mode_file) for a in argv]
    code, out, err = run(argv + ["--alphas", "2,2.0000001"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: alphas 2.0 and 2.0000001 both name the columns "
                   "mu_2, tsallis_2 and renyi_2\n")


def test_empty_measures_lists_exit_two(two_mode_file, capsys):
    for flag in ("--alphas", "--subsystem"):
        code, out, err = run(["measures", "--model", two_mode_file, flag, ""], capsys)
        assert code == 2 and out == "" and one_error_line(err)


@pytest.mark.parametrize("argv", [
    ["twomode-sweep", "--grid", "0:1:2", "--out", "{blocker}/x.csv"],
    ["measures", "--model", "{blocker}/m.json"],
    ["fit-kappa", "--in", "{blocker}/x.csv"],
])
def test_path_through_a_regular_file_exits_two(argv, tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code, out, err = run([a.format(blocker=blocker) for a in argv], capsys)
    assert code == 2 and out == "" and one_error_line(err)
    assert "Not a directory" in err


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

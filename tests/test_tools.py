"""The output tools: the comparison tool on small hand-made trees, and a
smoke run of the dump tool that the byte-identity gate rests on."""

import importlib.util
import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_the_largest_change_per_column(tmp_path, capsys):
    tool = load_tool("compare_outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for tree in (a, b):
        (tree / "same.txt").write_text("x\n")
    (a / "gone.txt").write_text("")
    (a / "t.csv").write_text("n,e,e\n1,2.0,4.0\n2,3.0,8.0\n")
    (b / "t.csv").write_text("n,e,e\n1,2.5,4.0\n2,3.0,7.0\n")
    (a / "t.json").write_text('[{"k": 1.0, "s": "x"}, {"k": 0.0, "s": "y"}]')
    (b / "t.json").write_text('[{"k": 1.0, "s": "x"}, {"k": 1e-3, "s": "z"}]')
    assert tool.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "byte-identical: 1 files\n  same.txt\n" in out
    assert "only in A: gone.txt\n" in out
    # A repeated CSV header gets #k; relative changes are against A.
    assert "differs: t.csv\n  e: max abs 5.000e-01, max rel 2.500e-01\n" in out
    assert "  e#2: max abs 1.000e+00, max rel 1.250e-01\n" in out
    assert "  n:" not in out
    assert "differs: t.json\n  k: max abs 1.000e-03, max rel inf\n" in out
    assert "  s: differs (not numeric or not the same length)\n" in out
    assert tool.main([str(a), str(a)]) == 0
    assert tool.main([str(a)]) == 2


def test_dump_outputs_runs_every_command_cleanly(tmp_path, monkeypatch):
    # A command that failed on both sides would leave its file missing from
    # both trees, and diff -r would still report no difference. So the dump
    # is checked against its own plan: every file, label and exit code.
    monkeypatch.setenv("COLUMNS", "200")  # wider than the tool's 80; restored after
    dump = load_tool("dump_outputs")
    assert dump.main([str(tmp_path)]) == 0
    inputs, runs = dump.plan(str(tmp_path))

    # Every planned file and nothing else: a refused command writes no
    # --out file, and no two runs share one.
    outputs = [output for label, _, output, code in runs if label is None or code == 0]
    assert len(set(outputs)) == len(outputs)
    assert sorted(os.listdir(tmp_path)) == sorted([*inputs, *outputs, "status.txt"])
    for name in [*inputs, *outputs]:
        assert (tmp_path / name).stat().st_size > 0, name

    # One "label: exit code" line per labelled run, in the plan's order; a
    # refusal adds one error line, and a clean run nothing.
    text = (tmp_path / "status.txt").read_text(encoding="utf-8")
    status = re.findall(r"(.*): exit (-?\d+)\n((?:error: .*\n)?)", text)
    assert "".join(f"{label}: exit {code}\n{err}" for label, code, err in status) == text
    assert ([(label, int(code)) for label, code, _ in status]
            == [(label, code) for label, _, _, code in runs if label is not None])
    assert all((err != "") == (code != "0") for _, code, err in status)

    # Parser runs: help on stdout, refusals on stderr, both at the fixed
    # width of 80 columns, where only the list of every command cannot wrap.
    commands = "{" + ",".join(dump.subcommands()) + "}"
    assert f"\n  {commands}\n" in (tmp_path / "help.txt").read_text(encoding="utf-8")
    for _, _, output, code in [run for run in runs if run[0] is None]:
        head, rest = (tmp_path / output).read_text(encoding="utf-8").split("\n", 1)
        out, err = rest.split("--- stderr\n")
        assert head == f"exit {code}", output
        if code == 0:
            assert err == "" and out.startswith("--- stdout\nusage: oscent"), output
        else:
            assert out == "--- stdout\n" and "error: " in err, output
        for line in rest.splitlines():
            every = all(command in line for command in dump.subcommands())
            assert len(line) <= 80 or every, (output, line)

    # Every site of the chain, scrambled and with a repeat, is the whole
    # state: its report reads as the default one, label included.
    for json in ("", "_json"):
        assert ((tmp_path / f"measures_chain_qp_whole{json}.out").read_bytes()
                == (tmp_path / f"measures_chain_qp_all{json}.out").read_bytes())

    # The soft chain's pair 1, 2 fails the kernel's test, but the whole
    # chain is pure by construction and reads its exact values.
    whole = (tmp_path / "measures_soft_chain_whole.out").read_text(encoding="utf-8")
    assert whole.splitlines()[1] == "1+2+3+4,1,0,0" + ",1,0,0,nan,0,0" + ",1,0,0" * 6


def test_blas_info_reads_the_library_numpy_loaded(capsys):
    assert load_tool("blas_info").main() == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(line.split(": ", 1) for line in lines)
    assert list(fields) == ["library", "numpy", "config", "core", "threads"]
    assert "openblas" in fields["library"] and fields["config"].startswith("OpenBLAS ")
    # The run-time core is one word, and the configuration names it.
    assert re.fullmatch(r"\w+", fields["core"]) and fields["core"] in fields["config"].split()
    assert int(fields["threads"]) >= 1

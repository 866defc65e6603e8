"""The output tools: the comparison tool on small hand-made trees, and a
smoke run of the dump tool that the byte-identity gate rests on."""

import importlib.util
import os
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
    # both trees, and diff -r would still report no difference.
    monkeypatch.setenv("COLUMNS", "200")  # wider than the tool's 80; restored after
    dump = load_tool("dump_outputs")
    assert dump.main([str(tmp_path)]) == 0

    expected = {"status.txt", "fit_kappa.csv", "fit_kappa.json", "fit_kappa_unfittable.csv",
                "lattice_size_uncertified.csv",
                "lattice_size_mixed_certificate.csv", "lattice_adjacent_whole_ring.csv",
                "lattice_adjacent_descending.csv"}
    expected |= {f"{stem}.csv" for stem in dump.WHOLE_WINDOW}
    for stem in ("twomode_sweep", "ghoc_sweep", "lattice_d", "lattice_adjacent",
                 "lattice_size"):
        expected |= {f"{stem}.csv", f"{stem}.json"}
    expected |= {f"fit_cft_{kappa}.{ext}" for kappa in dump.KAPPAS for ext in ("csv", "json")}
    for name in dump.MODELS:
        expected.add(f"model_{name}.json")
        expected |= {f"measures_{name}_{tag}.out" for tag in ("all", "sub", "all_json")}
        expected |= {f"measures_{name}_{tag}{json}.out"
                     for tag in dump.SUBSETS.get(name, {}) for json in ("", "_json")}
        expected |= {f"negativity_{name}_{i}{tag}.out"
                     for i in range(len(dump.CUTS[name])) for tag in ("", "_json")}
    expected.add("model_soft_chain.json")
    expected |= {f"{stem}.out" for stem in dump.SOFT_CHAIN_RUNS if not stem.startswith("refused_")}
    expected |= {f"demo_{script[:-3]}.txt" for script in os.listdir(ROOT / "demos")
                 if script.endswith(".py")}
    parser_files = {"help.txt"} | {f"refusal_{name}.txt" for name in dump.REFUSALS}
    parser_files |= {f"help_{command.replace('-', '_')}.txt" for command in dump.subcommands()}
    for name in sorted(expected | parser_files):
        assert (tmp_path / name).stat().st_size > 0, name

    # Help on stdout with exit 0, refusals on stderr with exit 2, both at the
    # fixed width of 80 columns.
    for name in parser_files:
        code, rest = (tmp_path / name).read_text(encoding="utf-8").split("\n", 1)
        out, err = rest.split("--- stderr\n")
        if name.startswith("help"):
            assert code == "exit 0" and err == ""
            assert out.startswith("--- stdout\nusage: oscent")
        else:
            assert code == "exit 2" and out == "--- stdout\n" and "error: " in err
        for line in rest.splitlines():  # only a list of every command cannot wrap
            assert len(line) <= 80 or "twomode-sweep" in line, (name, line)
    assert len(dump.subcommands()) == 9

    # One "label: exit 0" line per command and nothing on stderr: every file
    # but status.txt, the model files (MODELS and SOFT_CHAIN) and the
    # unfittable table comes from one command. Each refusal adds its
    # "label: exit 2" line (3 for the unstable ring, the near-singular
    # window, the singular qq block of the soft chain's sites 1, 2 and the
    # unfittable table) and one error line, and writes no output file.
    for name in dump.BAD_MODELS:
        assert (tmp_path / f"model_bad_{name}.json").stat().st_size > 0, name
    refused = [f"{command} bad {name}" for name in dump.BAD_MODELS
               for command in ("measures", "negativity")]
    refused += [f"refused {stem}" for stem in dump.REFUSED]
    refused += [stem for stem in dump.SOFT_CHAIN_RUNS if stem.startswith("refused_")]
    refused.append("refused fit_kappa_unfittable")
    assert not list(tmp_path.glob("refused_*"))
    lines = (tmp_path / "status.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(expected) - 3 - len(dump.MODELS) + 2 * len(refused)
    codes = {}
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("error: "):
            label, code = line.rsplit(": exit ", 1)
            codes[label] = int(code)
            assert after.startswith("error: ") == (code != "0"), (line, after)
    for label in refused:
        numerical = any(word in label for word in ("unstable", "singular", "unfittable"))
        assert codes.pop(label) == (3 if numerical else 2), label
    assert set(codes.values()) == {0}

    # Every site of the chain, scrambled and with a repeat, is the whole
    # state: its report reads as the default one, label included.
    for json in ("", "_json"):
        assert ((tmp_path / f"measures_chain_qp_whole{json}.out").read_bytes()
                == (tmp_path / f"measures_chain_qp_all{json}.out").read_bytes())

    # The soft chain's pair 1, 2 fails the kernel's test, but the whole
    # chain is pure by construction and reads its exact values.
    assert "refused_measures_soft_chain_singular_qq" in dump.SOFT_CHAIN_RUNS
    whole = (tmp_path / "measures_soft_chain_whole.out").read_text(encoding="utf-8")
    assert whole.splitlines()[1] == "1+2+3+4,1,0,0" + ",1,0,0,nan,0,0" + ",1,0,0" * 6

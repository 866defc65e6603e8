"""The output-comparison tool on small hand-made trees."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_the_largest_change_per_column(tmp_path, capsys):
    tool = load_tool()
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

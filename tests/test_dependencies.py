"""Every third-party module the library imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_names(path):
    """Top-level module names of every absolute import in a file, at any depth
    (function-level imports included)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
                for spec in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "oscent").glob("*.py")):
        imported |= imported_top_level_names(path)
    third_party = imported - set(sys.stdlib_module_names) - {"oscent"}
    assert {"numpy", "orjson"} <= third_party
    assert sorted(third_party - declared) == []

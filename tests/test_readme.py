"""The README's examples run as written: the Quick start block prints the
values shown beside it, and every line of the Command line block parses."""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

from numpy.testing import assert_allclose

from oscent import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(section, language):
    """The first ``language`` block under the heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def command_lines():
    """argv of each ``oscent`` line of the Command line block, in order."""
    lines = code_block("Command line", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("oscent ")]


def test_quick_start_prints_the_values_the_readme_shows():
    code = code_block("Quick start", "python")
    shown = [float(value) for value in re.findall(r"^print\(.*#\s*(\S+)$", code, re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = [float(line) for line in out.getvalue().splitlines()]
    assert len(shown) == 3
    assert_allclose(printed, shown, rtol=1e-14, atol=0.0)


def option_strings(command):
    """The flags of subcommand ``command``, spelled out in full."""
    parser = cli.build_parser(command)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices[command]._option_string_actions)


def test_every_command_line_parses():
    argvs = command_lines()
    assert len(argvs) == 9
    for argv in argvs:
        # argparse ends a flag it does not know with SystemExit(2), and it
        # takes a prefix of a flag, so each flag must also be a full one.
        assert cli._parse_args(argv).command == argv[0]
        flags = {word for word in argv if word.startswith("--")}
        assert flags <= option_strings(argv[0]), argv


def test_commands_whose_inputs_the_block_writes_run_in_order(tmp_path, monkeypatch, capsys):
    # A line whose --in file an earlier line writes with --out runs after it:
    # lattice-adjacent then fit-cft, and lattice-size then fit-kappa.
    monkeypatch.chdir(tmp_path)
    argvs = command_lines()
    writers = {argv[argv.index("--out") + 1]: argv for argv in argvs if "--out" in argv}
    readers = [argv for argv in argvs if "--in" in argv]
    assert [argv[0] for argv in readers] == ["fit-cft", "fit-kappa"]
    for reader in readers:
        writer = writers[reader[reader.index("--in") + 1]]
        assert cli.main(writer) == 0
        assert cli.main(reader) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 2   # a header and the fit

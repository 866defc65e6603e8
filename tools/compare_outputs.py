"""Compare two output trees written by ``tools/dump_outputs.py``.

    python3 tools/compare_outputs.py DIR_A DIR_B

Prints which files are byte-identical, which are present on one side only,
and, for every file that differs, each CSV or JSON column that differs with
its largest absolute and relative change (B against A). A CSV column is
named by its header cell, with ``#k`` added to the k-th repeat of a name; a
JSON column is the path of keys to a value, list positions left out, so the
records of a table form one column per key. Relative changes are taken
against the A value (``inf`` where A is 0 and B is not). Files that parse
as neither, or whose cells differ in a way that is not numeric, are
reported as differing text. Exit code 0 when the trees are byte-identical,
1 otherwise, 2 on bad usage.

Uses only the standard library.
"""

import csv
import io
import json
import math
import os
import signal
import sys


def _number(cell):
    """A float for numeric cells (bools excluded), else None."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _json_columns(value, path, columns):
    if isinstance(value, dict):
        for key, item in value.items():
            _json_columns(item, f"{path}.{key}" if path else str(key), columns)
    elif isinstance(value, list):
        for item in value:
            _json_columns(item, path, columns)
    else:
        columns.setdefault(path or "(value)", []).append(value)


def _csv_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or len({len(row) for row in rows}) != 1 or len(rows[0]) < 2:
        return None
    seen = {}
    names = []
    for name in rows[0]:
        seen[name] = seen.get(name, 0) + 1
        names.append(name if seen[name] == 1 else f"{name}#{seen[name]}")
    return {name: [row[j] for row in rows[1:]] for j, name in enumerate(names)}


def columns_of(data):
    """Columns of a JSON or CSV file as {name: [cell, ...]}, or None."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    try:
        columns = {}
        _json_columns(json.loads(text), "", columns)
        return columns
    except ValueError:
        return _csv_columns(text)


def column_change(a_cells, b_cells):
    """(max abs, max rel) change between two numeric columns, or None."""
    if len(a_cells) != len(b_cells):
        return None
    worst_abs = worst_rel = 0.0
    for a_cell, b_cell in zip(a_cells, b_cells):
        if a_cell == b_cell:
            continue
        a, b = _number(a_cell), _number(b_cell)
        if a is None or b is None:
            return None
        if math.isnan(a) and math.isnan(b):
            continue
        if a == b:   # the same number written differently
            continue
        diff = abs(b - a)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / abs(a) if a else math.inf)
    return worst_abs, worst_rel


def compare_file(a_data, b_data):
    """Report lines for one differing file."""
    a_cols, b_cols = columns_of(a_data), columns_of(b_data)
    if a_cols is None or b_cols is None:
        return ["  text differs (neither CSV nor JSON on both sides)"]
    lines = []
    for name in list(a_cols) + [n for n in b_cols if n not in a_cols]:
        if name not in a_cols or name not in b_cols:
            side = "A" if name in a_cols else "B"
            lines.append(f"  {name}: only in {side}")
            continue
        change = column_change(a_cols[name], b_cols[name])
        if change is None:
            lines.append(f"  {name}: differs (not numeric or not the same length)")
        elif change != (0.0, 0.0):
            lines.append(f"  {name}: max abs {change[0]:.3e}, max rel {change[1]:.3e}")
    return lines or ["  same values, written differently"]


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: python3 tools/compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = args
    names_a, names_b = ({name for name in os.listdir(d)
                         if os.path.isfile(os.path.join(d, name))} for d in args)
    identical, differing = [], []
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), "rb") as fh:
            a_data = fh.read()
        with open(os.path.join(dir_b, name), "rb") as fh:
            b_data = fh.read()
        if a_data == b_data:
            identical.append(name)
        else:
            differing.append((name, compare_file(a_data, b_data)))
    print(f"byte-identical: {len(identical)} files")
    for name in identical:
        print(f"  {name}")
    for side, names in (("A", names_a - names_b), ("B", names_b - names_a)):
        for name in sorted(names):
            print(f"only in {side}: {name}")
    for name, lines in differing:
        print(f"differs: {name}")
        for line in lines:
            print(line)
    return 0 if not differing and names_a == names_b else 1


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)   # quiet when piped into head
    sys.exit(main())

"""Regenerate the reference tables that the ring workloads are checked against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/{lattice_adjacent,lattice_d,lattice_size}.csv``
by running the CLI with its default grids on the dense route. The stored
tables were generated at the commit that added the benchmark; regenerate
them only when a change is meant to alter these numbers.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oscent.cli  # noqa: E402

COMMANDS = {
    "lattice_adjacent.csv": "lattice-adjacent",
    "lattice_d.csv": "lattice-d",
    "lattice_size.csv": "lattice-size",
}


def main():
    out_dir = os.path.join(HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    for filename, command in COMMANDS.items():
        code = oscent.cli.main([command, "--out", os.path.join(out_dir, filename)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

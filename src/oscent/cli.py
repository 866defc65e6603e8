"""Command-line front end.

Exit codes: 0 on success, 2 for invalid input (an OscentInputError, any
other ValueError such as a malformed flag, or an OSError from a file), 3 when
a computation fails numerically (an OscentNumericalError: unstable system,
fit that does not converge, spectrum below the pure floor, ...). A reader
that closes stdout early (``oscent ... | head``) ends the output quietly with
exit code 0.
Oscillator indices on the command line are 1-based.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments
from .covariance import Bipartition, classical_covariance, reduce_modes
from .errors import (IndexOutOfRangeError, OscentInputError, OscentNumericalError,
                     OverlappingGroupsError)
from .measures import DEFAULT_ALPHAS, measure_report
from .models import load_model, normal_modes
from .negativity import log_negativity


def _parse_grid(text):
    """start:stop:steps -> inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:steps, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    # linspace turns an infinite endpoint into NaN points with a warning; a
    # NaN endpoint passes through quietly and the model check that uses the
    # point refuses it, naming the field.
    if np.isinf(start) or np.isinf(stop):
        raise ValueError(f"grid {text!r} has an infinite endpoint")
    steps = int(parts[2])
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    return np.linspace(start, stop, steps)


def _parse_int_grid(text, name):
    """start:stop:steps whose every point is an integer -> list of ints."""
    values = [float(v) for v in _parse_grid(text)]
    for value in values:
        if not value.is_integer():
            raise ValueError(
                f"{name} grid {text!r} must hold integers, but it has {value:.17g}"
            )
    return [int(value) for value in values]


def _parse_floats(text, flag):
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError(f"{flag} needs at least one number, got {text!r}")
    return values


def _parse_indices(text, n):
    """1-based comma list of oscillators out of n -> 0-based tuple."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        value = int(piece)
        if not 1 <= value <= n:
            raise IndexOutOfRangeError(f"oscillator {value} outside 1..{n} (indices are 1-based)")
        out.append(value - 1)
    return tuple(out)


def _emit_table(table, args):
    if args.out:
        (table.write_json if args.json else table.write_csv)(args.out)
    else:
        sys.stdout.write(table.to_json() if args.json else table.to_csv())


def _fit_table(fit, key, value):
    columns = tuple(fit.params) + ("rms_residual", key)
    row = tuple(fit.params.values()) + (fit.rms_residual, value)
    return experiments.SweepTable(columns, (row,))


def _add_alphas(parser):
    parser.add_argument("--alphas",
                        help="comma list of entropy orders (default "
                             + ",".join(f"{a:g}" for a in DEFAULT_ALPHAS) + ")")


# A flag that sets a library keyword is stored under that keyword and states
# no default: when it is left off, the library's default holds (see _given).

def _add_twomode_sweep(p):
    p.add_argument("--A", dest="a", type=float)
    p.add_argument("--B", dest="b", type=float)
    _add_alphas(p)
    p.add_argument("--grid", default="0:19.9:100", help="C grid start:stop:steps")


def _add_ghoc_sweep(p):
    p.add_argument("--X1", dest="x1", type=float)
    p.add_argument("--X2", dest="x2", type=float)
    p.add_argument("--Y1", dest="y1", type=float)
    p.add_argument("--Z", dest="z", type=float)
    _add_alphas(p)
    p.add_argument("--grid", default="0:1.6:100", help="Y2 grid start:stop:steps")


def _add_lattice_d(p):
    p.add_argument("--N", dest="n", type=int)
    p.add_argument("--k", type=float)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--kappas", help="comma list of spring constants")
    p.add_argument("--grid", default="0:100:11", help="d grid start:stop:steps")


def _add_lattice_adjacent(p):
    p.add_argument("--N", dest="n", type=int)
    p.add_argument("--k", type=float)
    p.add_argument("--block", type=int, help="size of the split block (must fit the ring)")
    p.add_argument("--kappas")
    p.add_argument("--grid", default="0:100:101", help="n1 grid start:stop:steps")


def _add_lattice_size(p):
    p.add_argument("--k", type=float)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--kappas")
    p.add_argument("--grid", default="20:500:25", help="N grid start:stop:steps")


def _add_fit_cft(p):
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV written by lattice-adjacent")
    p.add_argument("--kappa", type=float, required=True,
                   help="which kappa rows to fit")
    p.add_argument("--block", type=int)


def _add_fit_kappa(p):
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV written by lattice-size")
    p.add_argument("--N", type=float, default=None,
                   help="which N rows to fit (default: the largest present)")


def _add_measures(p):
    p.add_argument("--model", required=True, help="JSON model file")
    p.add_argument("--subsystem", default=None,
                   help="comma list of 1-based oscillator indices "
                        "(default: the whole system)")
    _add_alphas(p)


def _add_negativity(p):
    p.add_argument("--model", required=True, help="JSON model file")
    p.add_argument("--group1", required=True, help="comma list of 1-based indices")
    p.add_argument("--group2", required=True, help="comma list of 1-based indices")


# Every subcommand, in help order: name -> (help text, adds its arguments).
_COMMANDS = {
    "twomode-sweep": ("one-oscillator measures along a coupling grid", _add_twomode_sweep),
    "ghoc-sweep": ("one-oscillator measures of the generalized two-oscillator chain "
                   "along a Y2 grid", _add_ghoc_sweep),
    "lattice-d": ("ring negativity vs window separation d", _add_lattice_d),
    "lattice-adjacent": ("ring negativity vs split point n1 of a block of sites",
                         _add_lattice_adjacent),
    "lattice-size": ("adjacent-window ring negativity vs ring size N", _add_lattice_size),
    "fit-cft": ("fit E_N = (b1/4) ln((block/pi) sin(pi n1/block)) + b2 "
                "to a lattice-adjacent sweep", _add_fit_cft),
    "fit-kappa": ("fit E_N(kappa) = a - b/(kappa^c + d) to a lattice-size sweep "
                  "at one ring size", _add_fit_kappa),
    "measures": ("purity / entropy report for a model-file subsystem", _add_measures),
    "negativity": ("log-negativity of a bipartition of a model file", _add_negativity),
}


def build_parser(command=None):
    """The oscent parser: every subcommand, or only ``command``, a subcommand name.

    Each ``add_argument`` call costs a help formatter, so a run that names
    its subcommand builds that one alone.
    """
    parser = argparse.ArgumentParser(
        prog="oscent",
        description="Entanglement-style measures of coupled oscillators "
                    "from classical covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
            add_arguments(p)
            p.add_argument("--out", default=None, help="output file (default stdout)")
            p.add_argument("--json", action="store_true", default=False,
                           help="emit the same rows as JSON records")
    return parser


def _parse_args(argv):
    """Namespace for ``argv``, parsed as the full parser parses it."""
    if not argv or argv[0] not in _COMMANDS:
        # Help, no command or an unknown one: argparse lists every command.
        return build_parser().parse_args(argv)
    args, extra = build_parser(argv[0]).parse_known_args(argv)
    if extra:
        # The refusal of an unknown flag prints the usage line of the full
        # parser, which names every command.
        return build_parser().parse_args(argv)
    return args


def _given(args, *cli_only):
    """The flags of ``args`` that the user gave, by library keyword, with
    --kappas and --alphas parsed; leaves out the command, the flags that
    every command has and ``cli_only``."""
    skip = ("command", "grid", "out", "json") + cli_only
    given = {key: value for key, value in vars(args).items() if key not in skip}
    for key in ("kappas", "alphas"):
        if key in given:
            given[key] = _parse_floats(given[key], f"--{key}")
    return given


def _unit_action_state(path):
    modes = normal_modes(load_model(path))
    return classical_covariance(modes, np.ones(modes.omegas.shape[0]))


def _run(args):
    if args.command == "twomode-sweep":
        table = experiments.sweep_two_mode_coupling(_parse_grid(args.grid), **_given(args))
    elif args.command == "ghoc-sweep":
        table = experiments.sweep_ghoc_y2(_parse_grid(args.grid), **_given(args))
    elif args.command == "lattice-d":
        table = experiments.lattice_disjoint_sweep(
            _parse_int_grid(args.grid, "d"), **_given(args))
    elif args.command == "lattice-adjacent":
        table = experiments.lattice_adjacent_sweep(
            _parse_int_grid(args.grid, "n1"), **_given(args))
    elif args.command == "lattice-size":
        table = experiments.lattice_size_sweep(
            _parse_int_grid(args.grid, "N"), **_given(args))
    elif args.command == "fit-cft":
        table = experiments.read_sweep_csv(args.infile)
        pick = table.column("kappa") == args.kappa
        if not np.any(pick):
            raise ValueError(f"no rows with kappa = {args.kappa} in {args.infile}")
        fit = experiments.fit_adjacent_cft(
            table.column("n1")[pick], table.column("log_negativity")[pick],
            **_given(args, "infile", "kappa"))
        table = _fit_table(fit, "kappa", args.kappa)
    elif args.command == "fit-kappa":
        table = experiments.read_sweep_csv(args.infile)
        n_col = table.column("N")
        n_val = args.N if args.N is not None else float(np.max(n_col))
        pick = n_col == n_val
        if not np.any(pick):
            raise ValueError(f"no rows with N = {n_val} in {args.infile}")
        fit = experiments.fit_kappa_asymptote(
            table.column("kappa")[pick], table.column("log_negativity")[pick])
        table = _fit_table(fit, "N", n_val)
    elif args.command == "measures":
        cov = _unit_action_state(args.model)
        n = cov.n_modes
        indices = range(n) if args.subsystem is None else _parse_indices(args.subsystem, n)
        label = "+".join(str(i + 1) for i in sorted(set(indices)))
        alphas = _given(args, "model", "subsystem").get("alphas", DEFAULT_ALPHAS)
        columns = ("subsystem", *experiments._report_columns(alphas))
        report = measure_report(reduce_modes(cov, indices), alphas=alphas, label=label)
        table = experiments.SweepTable(
            columns, ((label, *experiments._report_cells(report, alphas)),))
    elif args.command == "negativity":
        cov = _unit_action_state(args.model)
        n = cov.n_modes
        group1, group2 = _parse_indices(args.group1, n), _parse_indices(args.group2, n)
        common = sorted(i + 1 for i in set(group1) & set(group2))
        if common:   # named as typed, 1-based
            raise OverlappingGroupsError(f"groups share oscillators {common}")
        part = Bipartition(group1, group2)
        res = log_negativity(cov, part)
        table = experiments.SweepTable(
            ("group1", "group2", "log_negativity", "negativity"),
            (("+".join(str(i + 1) for i in part.group1),
              "+".join(str(i + 1) for i in part.group2),
              res.log_negativity, res.negativity),))
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")
    _emit_table(table, args)
    return 0


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the rest. Point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    # Numerical errors first: most of them are ValueErrors too.
    except OscentNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OscentInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())  # pragma: no cover

"""Command-line front end.

Exit codes: 0 on success, 2 for invalid input (flags, model files, index
lists), 3 when a computation fails numerically (unstable system, fit that
does not converge, spectrum below the pure floor, ...). Oscillator indices
on the command line are 1-based.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .covariance import Bipartition, classical_covariance, reduce_modes
from .errors import (
    AlphaOutOfDomainError,
    AsymmetricInputError,
    ComplexEigenvalueError,
    CrossBlockNotZeroError,
    DegenerateDesignError,
    DegenerateParametersError,
    DimensionTooLargeError,
    EmptySubsystemError,
    IndexOutOfRangeError,
    InvalidModelError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    OverlappingGroupsError,
    SingularMatrixError,
    SubHeisenbergError,
    UnpairedSpectrumError,
    UnstableSystemError,
)
from .measures import DEFAULT_ALPHAS, measure_report
from .models import load_model, normal_modes
from .negativity import log_negativity

_INPUT_ERRORS = (
    InvalidModelError,
    OverlappingGroupsError,
    IndexOutOfRangeError,
    EmptySubsystemError,
    AlphaOutOfDomainError,
    DimensionTooLargeError,
    FileNotFoundError,
    IsADirectoryError,
    ValueError,  # bad grids, bad numbers, missing CSV columns
)

_NUMERICAL_ERRORS = (
    UnstableSystemError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    AsymmetricInputError,
    SubHeisenbergError,
    UnpairedSpectrumError,
    ComplexEigenvalueError,
    SingularMatrixError,
    CrossBlockNotZeroError,
    DegenerateParametersError,
    DegenerateDesignError,
)


def _parse_grid(text):
    """start:stop:steps -> inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:steps, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
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


def _parse_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_indices(text):
    """1-based comma list -> 0-based tuple."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        value = int(piece)
        if value < 1:
            raise IndexOutOfRangeError(f"indices are 1-based, got {value}")
        out.append(value - 1)
    return tuple(out)


def _emit_table(table, args):
    if args.out:
        if args.json:
            table.write_json(args.out)
        else:
            table.write_csv(args.out)
        return
    if args.json:
        import json

        print(json.dumps(table.to_records(), indent=1))
    else:
        print(",".join(table.columns))
        for row in table.rows:
            print(",".join(f"{v:.17g}" if not isinstance(v, str) else v for v in row))


def _emit_fit(fit, args, extra=()):
    columns = tuple(fit.params) + ("rms_residual",) + tuple(k for k, _ in extra)
    row = tuple(fit.params.values()) + (fit.rms_residual,) + tuple(v for _, v in extra)
    _emit_table(experiments.SweepTable(columns, (row,)), args)


def _add_alphas(parser):
    parser.add_argument("--alphas", default=None,
                        help="comma list of entropy orders (default "
                             + ",".join(f"{a:g}" for a in DEFAULT_ALPHAS) + ")")


def _add_common(parser, grid_help, grid_default):
    parser.add_argument("--grid", default=grid_default, help=grid_help)
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--json", action="store_true",
                        help="emit the same rows as JSON records")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscent",
        description="Entanglement-style measures of coupled oscillators "
                    "from classical covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twomode-sweep",
                       help="one-oscillator measures along a coupling grid")
    p.add_argument("--A", type=float, default=5.0)
    p.add_argument("--B", type=float, default=20.0)
    _add_alphas(p)
    _add_common(p, "C grid start:stop:steps", "0:19.9:100")

    p = sub.add_parser("ghoc-sweep",
                       help="one-oscillator measures of the generalized "
                            "two-oscillator chain along a Y2 grid")
    p.add_argument("--X1", type=float, default=2.0)
    p.add_argument("--X2", type=float, default=2.0)
    p.add_argument("--Y1", type=float, default=0.0)
    p.add_argument("--Z", type=float, default=1.0)
    _add_alphas(p)
    _add_common(p, "Y2 grid start:stop:steps", "0:1.6:100")

    p = sub.add_parser("lattice-d",
                       help="ring negativity vs window separation d")
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--k", type=float, default=0.1)
    p.add_argument("--n1", type=int, default=50)
    p.add_argument("--n2", type=int, default=50)
    p.add_argument("--kappas", default="1,8,64", help="comma list of spring constants")
    _add_common(p, "d grid start:stop:steps", "0:100:11")

    p = sub.add_parser("lattice-adjacent",
                       help="ring negativity vs split point n1 of a block of sites")
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--k", type=float, default=1e-4)
    p.add_argument("--block", type=int, default=100,
                   help="size of the split block (must fit the ring)")
    p.add_argument("--kappas", default="1,2,4,8,16,32,64")
    _add_common(p, "n1 grid start:stop:steps", "0:100:101")

    p = sub.add_parser("lattice-size",
                       help="adjacent-window ring negativity vs ring size N")
    p.add_argument("--k", type=float, default=0.1)
    p.add_argument("--n1", type=int, default=10)
    p.add_argument("--n2", type=int, default=10)
    p.add_argument("--kappas", default="1,2,4,8,16,32,64")
    _add_common(p, "N grid start:stop:steps", "20:500:25")

    p = sub.add_parser("fit-cft",
                       help="fit E_N = (b1/4) ln((block/pi) sin(pi n1/block)) + b2 "
                            "to a lattice-adjacent sweep")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV written by lattice-adjacent")
    p.add_argument("--kappa", type=float, required=True,
                   help="which kappa rows to fit")
    p.add_argument("--block", type=int, default=100)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fit-kappa",
                       help="fit E_N(kappa) = a - b/(kappa^c + d) to a "
                            "lattice-size sweep at one ring size")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV written by lattice-size")
    p.add_argument("--N", type=float, default=None,
                   help="which N rows to fit (default: the largest present)")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("measures",
                       help="purity / entropy report for a model-file subsystem")
    p.add_argument("--model", required=True, help="JSON model file")
    p.add_argument("--subsystem", default=None,
                   help="comma list of 1-based oscillator indices "
                        "(default: the whole system)")
    _add_alphas(p)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("negativity",
                       help="log-negativity of a bipartition of a model file")
    p.add_argument("--model", required=True, help="JSON model file")
    p.add_argument("--group1", required=True, help="comma list of 1-based indices")
    p.add_argument("--group2", required=True, help="comma list of 1-based indices")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    return parser


def _alphas_from(args):
    return _parse_floats(args.alphas) if args.alphas else DEFAULT_ALPHAS


def _run(args):
    if args.command == "twomode-sweep":
        table = experiments.sweep_two_mode_coupling(
            _parse_grid(args.grid), a=args.A, b=args.B, alphas=_alphas_from(args))
        _emit_table(table, args)
    elif args.command == "ghoc-sweep":
        table = experiments.sweep_ghoc_y2(
            _parse_grid(args.grid), x1=args.X1, x2=args.X2, y1=args.Y1,
            z=args.Z, alphas=_alphas_from(args))
        _emit_table(table, args)
    elif args.command == "lattice-d":
        d_grid = _parse_int_grid(args.grid, "d")
        table = experiments.lattice_disjoint_sweep(
            d_grid, kappas=_parse_floats(args.kappas), n=args.N, k=args.k,
            n1=args.n1, n2=args.n2)
        _emit_table(table, args)
    elif args.command == "lattice-adjacent":
        n1_grid = _parse_int_grid(args.grid, "n1")
        table = experiments.lattice_adjacent_sweep(
            n1_grid, kappas=_parse_floats(args.kappas), n=args.N, k=args.k,
            block=args.block)
        _emit_table(table, args)
    elif args.command == "lattice-size":
        n_grid = _parse_int_grid(args.grid, "N")
        table = experiments.lattice_size_sweep(
            n_grid, kappas=_parse_floats(args.kappas), k=args.k,
            n1=args.n1, n2=args.n2)
        _emit_table(table, args)
    elif args.command == "fit-cft":
        table = experiments.read_sweep_csv(args.infile)
        pick = table.column("kappa") == args.kappa
        if not np.any(pick):
            raise ValueError(f"no rows with kappa = {args.kappa} in {args.infile}")
        fit = experiments.fit_adjacent_cft(
            table.column("n1")[pick], table.column("log_negativity")[pick],
            block=args.block)
        _emit_fit(fit, args, extra=(("kappa", args.kappa),))
    elif args.command == "fit-kappa":
        table = experiments.read_sweep_csv(args.infile)
        n_col = table.column("N")
        n_val = args.N if args.N is not None else float(np.max(n_col))
        pick = n_col == n_val
        if not np.any(pick):
            raise ValueError(f"no rows with N = {n_val} in {args.infile}")
        fit = experiments.fit_kappa_asymptote(
            table.column("kappa")[pick], table.column("log_negativity")[pick])
        _emit_fit(fit, args, extra=(("N", n_val),))
    elif args.command == "measures":
        model = load_model(args.model)
        modes = normal_modes(model)
        cov = classical_covariance(modes, np.ones(modes.omegas.shape[0]))
        if args.subsystem:
            indices = _parse_indices(args.subsystem)
        else:
            indices = tuple(range(modes.omegas.shape[0]))
        label = "+".join(str(i + 1) for i in sorted(set(indices)))
        report = measure_report(reduce_modes(cov, indices),
                                alphas=_alphas_from(args), label=label)
        columns = ["subsystem", "purity", "linear_entropy", "von_neumann"]
        row = [label, report.purity, report.linear_entropy, report.von_neumann]
        for alpha in sorted(report.families):
            fam = report.families[alpha]
            columns += ["alpha", "mu", "tsallis", "renyi"]
            row += [fam.alpha, fam.purity, fam.tsallis, fam.renyi]
        _emit_table(experiments.SweepTable(tuple(columns), (tuple(row),)), args)
    elif args.command == "negativity":
        model = load_model(args.model)
        modes = normal_modes(model)
        cov = classical_covariance(modes, np.ones(modes.omegas.shape[0]))
        part = Bipartition(_parse_indices(args.group1), _parse_indices(args.group2))
        res = log_negativity(cov, part)
        table = experiments.SweepTable(
            ("group1", "group2", "log_negativity", "negativity"),
            (("+".join(str(i + 1) for i in part.group1),
              "+".join(str(i + 1) for i in part.group2),
              res.log_negativity, res.negativity),))
        _emit_table(table, args)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())  # pragma: no cover

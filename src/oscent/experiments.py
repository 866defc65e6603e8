"""Parameter sweeps and the fits used to summarize them.

Every sweep returns a SweepTable whose row order is fixed by the input
grids, no randomness or threading anywhere, so repeated runs produce
byte-identical CSV files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .covariance import Bipartition, RingCovariance, classical_covariance, reduce_modes
from .errors import (
    DegenerateDesignError,
    InvalidModelError,
    NoConvergenceError,
    OverlappingGroupsError,
)
from .measures import DEFAULT_ALPHAS, measure_report
from .models import (
    CircularLattice,
    TwoMode,
    TwoModeGeneralized,
    normal_modes,
)
from .negativity import stacked_log_negativities

DEFAULT_KAPPAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_STEP_TOL = 1e-10  # fit_kappa_asymptote stops below this relative parameter step
_MAX_ITER = 500    # fit_kappa_asymptote gives up after this many iterations


@dataclass(frozen=True)
class SweepTable:
    """Column names plus rows of plain python scalars."""

    columns: Tuple[str, ...]
    rows: Tuple[tuple, ...]

    def __post_init__(self):
        if len(set(self.columns)) < len(self.columns):
            name = next(c for i, c in enumerate(self.columns) if c in self.columns[:i])
            raise ValueError(f"column {name!r} appears twice in the table")

    def column(self, name):
        if name not in self.columns:
            raise ValueError(f"no column {name!r} in the table; "
                             f"its columns are {', '.join(self.columns)}")
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])

    def to_csv(self):
        """CSV text: a header line, then numbers to 17 significant digits."""
        lines = [",".join(self.columns)]
        lines += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)
                  for row in self.rows]
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def to_records(self):
        """Rows as dicts; NaN and inf cells become None (JSON null)."""
        return [{col: None if isinstance(v, float) and not math.isfinite(v) else v
                 for col, v in zip(self.columns, row)}
                for row in self.rows]

    def to_json(self):
        """The records as JSON text, indented by one space per level."""
        return json.dumps(self.to_records(), indent=1) + "\n"

    def write_json(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())


def read_sweep_csv(path):
    """Read back a SweepTable written by write_csv (all cells as floats).

    Blank lines are skipped but counted in the line numbers of errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(fh.read().split("\n"), 1)
                 if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    (_, header), *body = lines
    columns = tuple(header.split(","))
    for number, line in body:
        if line.count(",") != len(columns) - 1:
            raise ValueError(f"{path} line {number}: {line.count(',') + 1} cells "
                             f"under a header of {len(columns)}")
    # One conversion over every cell of the body, then cut into rows.
    cells = ",".join([line for _, line in body]).split(",") if body else []
    return SweepTable(columns, tuple(zip(*[iter(map(float, cells))] * len(columns))))


@dataclass(frozen=True)
class FitResult:
    params: Dict[str, float]
    rms_residual: float
    grid: Tuple[float, ...]


def _floats(values, name):
    """``values`` as a list of floats; an empty list is refused by name."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError(f"{name} needs at least one value")
    return values


def _order_columns(alphas):
    """Columns mu_<alpha>, tsallis_<alpha> and renyi_<alpha> per order, in order.

    Orders whose names (six significant digits) coincide raise ValueError.
    """
    columns, orders = [], {}   # orders: column tag -> the order it names
    for alpha in alphas:
        tag = f"{alpha:g}"
        if tag in orders:
            if orders[tag] == alpha:
                raise ValueError(f"alphas repeat the order {tag}")
            raise ValueError(f"alphas {orders[tag]!r} and {alpha!r} both name the "
                             f"columns mu_{tag}, tsallis_{tag} and renyi_{tag}")
        orders[tag] = alpha
        columns += [f"mu_{tag}", f"tsallis_{tag}", f"renyi_{tag}"]
    return columns


def _order_cells(report, alphas):
    """The cells under _order_columns(alphas): mu, Tsallis and Renyi per order."""
    cells = []
    for alpha in alphas:
        fam = report.families[alpha]
        cells += [fam.purity, fam.tsallis, fam.renyi]
    return cells


def _first_oscillator_sweep(name, grid, model_at, alphas):
    """Oscillator 1's sigma and measures in model_at(x) for each x in grid.

    Orders whose column names coincide raise ValueError before any grid
    point is evaluated.
    """
    alphas = tuple(_floats(alphas, "alphas"))
    columns = [name, "sigma", "purity", "linear_entropy", "von_neumann"]
    columns += _order_columns(alphas)
    rows = []
    for x in grid:
        cov = classical_covariance(normal_modes(model_at(x)), np.ones(2))
        report = measure_report(reduce_modes(cov, [0]), alphas)
        rows.append((x, float(report.sigma[0]), report.purity, report.linear_entropy,
                     report.von_neumann, *_order_cells(report, alphas)))
    return SweepTable(tuple(columns), tuple(rows))


def sweep_two_mode_coupling(c_grid, a=5.0, b=20.0, alphas=DEFAULT_ALPHAS):
    """One-oscillator measures of the plain two-mode model along a C grid.

    Every grid point must satisfy 4ab - C**2 > 0 (real, nonzero
    frequencies); the first violating point raises InvalidModelError.
    """
    c_grid = [float(c) for c in c_grid]
    for c in c_grid:
        if 4.0 * a * b - c * c <= 0.0:
            raise InvalidModelError(
                f"C = {c} reaches 4AB - C^2 <= 0; grid must stay inside the stable disc"
            )
    return _first_oscillator_sweep("C", c_grid, lambda c: TwoMode(a, b, c), alphas)


def sweep_ghoc_y2(y2_grid, x1=2.0, x2=2.0, y1=0.0, z=1.0, alphas=DEFAULT_ALPHAS):
    """One-oscillator measures of the generalized two-mode chain versus Y2.

    Unstable grid points (for the defaults, |Y2| >= sqrt(8/3)) raise
    UnstableSystemError from the normal-mode construction.
    """
    return _first_oscillator_sweep("Y2", [float(y2) for y2 in y2_grid],
                                   lambda y2: TwoModeGeneralized(x1, x2, y1, y2, z),
                                   alphas)


def _ring_rows(keys, partitions, kappas, n, k):
    """Rows (key, kappa, E_N, N) on the ring (n, k): key outer, kappa inner.

    ``partitions[i]`` belongs to ``keys[i]``. The states at all kappas form
    one stack, across which stacked_log_negativities solves one partition
    per symmetry class.
    """
    # A generator: each ring is built just before its stability test, so the
    # first bad kappa in list order is reported, invalid or unstable.
    states = RingCovariance(CircularLattice(n, k, kappa) for kappa in kappas)
    return [(float(key), kappa, res.log_negativity, res.negativity)
            for key, per_state in zip(keys, stacked_log_negativities(states, partitions))
            for kappa, res in zip(kappas, per_state)]


def _ring_group(start, count, n):
    return tuple(int((start + j) % n) for j in range(count))


def _check_ring(n, **windows):
    """Refuse a ring of fewer than 3 sites or a window of negative size
    before any group is built; a window of 0 sites is an empty group."""
    CircularLattice(n, 0.0, 0.0)
    for name, size in windows.items():
        if size < 0:
            raise ValueError(f"{name} = {size}: a window cannot have negative size")


def lattice_disjoint_sweep(d_grid, kappas=(1.0, 8.0, 64.0), n=200, k=0.1,
                           n1=50, n2=50):
    """E_N between two ring windows separated by d lattice sites.

    Group 1 is oscillators 0..n1-1, group 2 starts at n1 + d (mod n).
    Overlapping windows raise OverlappingGroupsError.
    """
    d_grid = [int(d) for d in d_grid]
    kappas = _floats(kappas, "kappas")
    _check_ring(n, n1=n1, n2=n2)
    group1 = _ring_group(0, n1, n)
    parts = []
    for d in d_grid:
        group2 = _ring_group(n1 + d, n2, n)
        if set(group1) & set(group2):
            raise OverlappingGroupsError(
                f"separation d = {d} makes the windows overlap"
            )
        parts.append(Bipartition(group1, group2))
    rows = _ring_rows(d_grid, parts, kappas, n, k)
    return SweepTable(("d", "kappa", "log_negativity", "negativity"), tuple(rows))


def lattice_adjacent_sweep(n1_grid, kappas=DEFAULT_KAPPAS, n=200, k=1e-4,
                           block=100):
    """E_N of the split (0..n1-1 | n1..block-1) of a half-ring block.

    n1 = 0 and n1 = block are legitimate rows: one side is empty, all
    eigenvalues sit at or above 1, and E_N is exactly zero. Every split has
    the same members, so each kappa factors the block's qq only once.
    """
    n1_grid = [int(n1) for n1 in n1_grid]
    kappas = _floats(kappas, "kappas")
    if block > n:
        raise ValueError(f"block of {block} sites does not fit a ring of {n}")
    for n1 in n1_grid:
        if n1 < 0 or n1 > block:
            raise ValueError(f"n1 = {n1} outside [0, {block}]")
    parts = [Bipartition(tuple(range(n1)), tuple(range(n1, block))) for n1 in n1_grid]
    rows = _ring_rows(n1_grid, parts, kappas, n, k)
    return SweepTable(("n1", "kappa", "log_negativity", "negativity"), tuple(rows))


def lattice_size_sweep(n_grid, kappas=DEFAULT_KAPPAS, k=0.1, n1=10, n2=10):
    """E_N of two fixed adjacent windows as the ring size N grows.

    Only the two windows are ever assembled, so N may run far beyond what
    a dense N x N eigensolve allows. The windows of every ring size and
    kappa form one stack, evaluated in one call of stacked_log_negativities
    (the default 10 | 10 windows as two half-size products; see there).
    """
    n_grid = [int(n) for n in n_grid]
    kappas = _floats(kappas, "kappas")
    for n in n_grid:
        _check_ring(n, n1=n1, n2=n2)
        if n < n1 + n2:
            raise ValueError(f"N = {n} cannot hold two windows of {n1} and {n2}")
    part = Bipartition(tuple(range(n1)), tuple(range(n1, n1 + n2)))
    stacks = [RingCovariance(CircularLattice(n, k, kappa) for kappa in kappas)
              for n in n_grid]  # generators, as in _ring_rows
    per_state = stacked_log_negativities(stacks, [part])[0] if stacks else []
    keys = [(n, kappa) for n in n_grid for kappa in kappas]
    rows = [(float(n), kappa, res.log_negativity, res.negativity)
            for (n, kappa), res in zip(keys, per_state)]
    return SweepTable(("N", "kappa", "log_negativity", "negativity"), tuple(rows))


def _require_finite(e, key, keys):
    """Refuse a NaN or infinite E_N, naming its row by its ``key`` value."""
    bad = ~np.isfinite(e)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"E_N = {e[i]:g} at {key} = {keys[i]:g} is not finite")


def fit_adjacent_cft(n1_values, e_values, block=100):
    """Straight-line fit of E_N against ln((block/pi) sin(pi n1 / block)).

    Returns b1 (4 times the slope), b2 (the intercept) and the rms residual.
    Endpoint rows (n1 = 0 or block) are excluded; at least 10 interior
    points are required. An n1 outside [0, block] (or NaN) belongs to
    another block size and raises ValueError, as does a non-finite E_N.
    """
    n1 = np.asarray(n1_values, dtype=float)
    e = np.asarray(e_values, dtype=float)
    if n1.size != e.size:
        raise ValueError(f"need matching columns, got {n1.size} n1 values "
                         f"and {e.size} E_N values")
    # Written so that NaN fails too: every comparison with NaN is false.
    outside = ~((n1 >= 0.0) & (n1 <= float(block)))
    if np.any(outside):
        raise ValueError(f"n1 = {n1[outside][0]:g} outside [0, {block}]: "
                         f"the rows do not come from a block of {block} sites")
    _require_finite(e, "n1", n1)
    keep = (n1 > 0.0) & (n1 < float(block))
    n1, e = n1[keep], e[keep]
    if n1.size < 10:
        raise ValueError(f"need at least 10 interior points, got {n1.size}")
    x = np.log((block / np.pi) * np.sin(np.pi * n1 / block))
    if float(np.var(x)) < 1e-12:
        raise DegenerateDesignError("abscissa carries no variance")
    slope, intercept = np.polyfit(x, e, 1)
    resid = e - (slope * x + intercept)
    return FitResult(
        params={"b1": float(4.0 * slope), "b2": float(intercept)},
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        grid=tuple(n1.tolist()),
    )


def saturation_curve(kappa, a, b, c, d):
    """The asymptote model a - b / (kappa**c + d)."""
    kappa = np.asarray(kappa, dtype=float)
    return a - b / (kappa**c + d)


def fit_kappa_asymptote(kappas, e_values):
    """Fit E_N(kappa) = a - b/(kappa**c + d) by damped Gauss-Newton.

    Starts from a = max(E), b = a - min(E), c = 0.5, d = 1. The damping
    parameter grows tenfold on a rejected step (one whose cost is higher or
    not finite) and shrinks tenfold on an accepted one; convergence is a
    relative parameter step below 1e-10.

    Constant data converges immediately to b = 0 with c and d left at their
    starting values (unidentifiable); inspect params["b"] to detect it.

    Raises
    ------
    ValueError
        If a kappa is not positive and finite or an E_N is not finite.
    NoConvergenceError
        If 500 iterations pass without the step shrinking to tolerance.
    """
    kappa = np.asarray(kappas, dtype=float)
    e = np.asarray(e_values, dtype=float)
    if kappa.size != e.size or kappa.size < 4:
        raise ValueError("need matching kappa / E arrays with at least 4 points")
    # Written so that NaN fails too: every comparison with NaN is false.
    bad = ~((kappa > 0.0) & (kappa < np.inf))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"kappa = {kappa[i]:g} at point {i} is not positive and finite")
    _require_finite(e, "kappa", kappa)

    theta = np.array([float(np.max(e)), float(np.max(e) - np.min(e)), 0.5, 1.0])

    def residual(t):
        return saturation_curve(kappa, *t) - e

    def jacobian(t):
        _, b, c, d = t
        pole = kappa**c + d
        j = np.empty((kappa.size, 4))
        j[:, 0] = 1.0
        j[:, 1] = -1.0 / pole
        j[:, 2] = b * kappa**c * np.log(kappa) / pole**2
        j[:, 3] = b / pole**2
        return j

    # A trial step may overflow kappa**c or divide by a vanished pole; its
    # non-finite cost rejects it, so numpy's warnings would only be noise.
    with np.errstate(all="ignore"):
        r = residual(theta)
        cost = float(r @ r)
        damping = 1e-3
        for _ in range(_MAX_ITER):
            j = jacobian(theta)
            jtj = j.T @ j
            g = j.T @ r
            try:
                step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj) + 1e-12), -g)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = theta + step
            r_new = residual(candidate)
            cost_new = float(r_new @ r_new)
            if not np.isfinite(cost_new) or cost_new > cost:
                damping *= 10.0
                if damping > 1e12:
                    break
                continue
            rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(candidate), 1e-12)))
            theta, r, cost = candidate, r_new, cost_new
            damping = max(damping / 10.0, 1e-12)
            if rel_step < _STEP_TOL:
                rms = float(np.sqrt(cost / kappa.size))
                return FitResult(
                    params=dict(zip("abcd", (float(x) for x in theta))),
                    rms_residual=rms,
                    grid=tuple(kappa.tolist()),
                )
    raise NoConvergenceError(
        f"asymptote fit did not converge in {_MAX_ITER} iterations"
    )

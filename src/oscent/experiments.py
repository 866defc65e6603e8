"""Parameter sweeps and the fits used to summarize them.

Every sweep returns a SweepTable whose row order is fixed by the input
grids, no randomness or threading anywhere, so repeated runs produce
byte-identical CSV files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .covariance import Bipartition, classical_covariance, reduce_modes, ring_covariance
from .errors import (
    DegenerateDesignError,
    InvalidModelError,
    NoConvergenceError,
    OverlappingGroupsError,
)
from .measures import DEFAULT_ALPHAS, measure_report
from .models import CircularLattice, TwoMode, TwoModeGeneralized, normal_modes
from .negativity import log_negativities

DEFAULT_KAPPAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _fmt(value):
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


@dataclass(frozen=True)
class SweepTable:
    """Column names plus rows of plain python scalars."""

    columns: Tuple[str, ...]
    rows: Tuple[tuple, ...]

    def column(self, name):
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def to_records(self):
        return [dict(zip(self.columns, row)) for row in self.rows]

    def write_json(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_records(), fh, indent=1)
            fh.write("\n")


def read_sweep_csv(path):
    """Read back a SweepTable written by write_csv (all cells as floats)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    columns = tuple(lines[0].split(","))
    rows = tuple(tuple(float(cell) for cell in line.split(",")) for line in lines[1:])
    return SweepTable(columns, rows)


@dataclass(frozen=True)
class FitResult:
    params: Dict[str, float]
    rms_residual: float
    grid: Tuple[float, ...]


def _measure_columns(alphas):
    cols = ["purity", "linear_entropy", "von_neumann"]
    for alpha in alphas:
        tag = f"{alpha:g}"
        cols += [f"mu_{tag}", f"tsallis_{tag}", f"renyi_{tag}"]
    return cols


def _measure_cells(report, alphas):
    cells = [report.purity, report.linear_entropy, report.von_neumann]
    for alpha in alphas:
        fam = report.families[float(alpha)]
        cells += [fam.purity, fam.tsallis, fam.renyi]
    return cells


def sweep_two_mode_coupling(c_grid, a=5.0, b=20.0, alphas=DEFAULT_ALPHAS):
    """One-oscillator measures of the plain two-mode model along a C grid.

    Every grid point must satisfy 4ab - C**2 > 0 (real, nonzero
    frequencies); the first violating point raises InvalidModelError.
    """
    c_grid = [float(c) for c in c_grid]
    alphas = tuple(float(x) for x in alphas)
    for c in c_grid:
        if 4.0 * a * b - c * c <= 0.0:
            raise InvalidModelError(
                f"C = {c} reaches 4AB - C^2 <= 0; grid must stay inside the stable disc"
            )
    rows = []
    for c in c_grid:
        modes = normal_modes(TwoMode(a, b, c))
        cov = classical_covariance(modes, np.ones(2))
        report = measure_report(reduce_modes(cov, [0]), alphas)
        rows.append(tuple([c, float(report.sigma[0])] + _measure_cells(report, alphas)))
    return SweepTable(tuple(["C", "sigma"] + _measure_columns(alphas)), tuple(rows))


def sweep_ghoc_y2(y2_grid, x1=2.0, x2=2.0, y1=0.0, z=1.0, alphas=DEFAULT_ALPHAS):
    """One-oscillator measures of the generalized two-mode chain versus Y2.

    Unstable grid points (for the defaults, |Y2| >= sqrt(8/3)) raise
    UnstableSystemError from the normal-mode construction.
    """
    y2_grid = [float(y2) for y2 in y2_grid]
    alphas = tuple(float(x) for x in alphas)
    rows = []
    for y2 in y2_grid:
        modes = normal_modes(TwoModeGeneralized(x1, x2, y1, y2, z))
        cov = classical_covariance(modes, np.ones(2))
        report = measure_report(reduce_modes(cov, [0]), alphas)
        rows.append(tuple([y2, float(report.sigma[0])] + _measure_cells(report, alphas)))
    return SweepTable(tuple(["Y2", "sigma"] + _measure_columns(alphas)), tuple(rows))


def _ring_rows(keys, partitions, kappas, n, k):
    """Rows (key, kappa, E_N, N) on the ring (n, k): key outer, kappa inner.

    ``partitions[i]`` belongs to ``keys[i]``; the state at each kappa
    evaluates all of them in one batch.
    """
    batches = {kappa: log_negativities(ring_covariance(CircularLattice(n, k, kappa)),
                                       partitions)
               for kappa in kappas}
    rows = []
    for i, key in enumerate(keys):
        for kappa in kappas:
            res = batches[kappa][i]
            rows.append((float(key), kappa, res.log_negativity, res.negativity))
    return rows


def _ring_group(start, count, n):
    return tuple(int((start + j) % n) for j in range(count))


def lattice_disjoint_sweep(d_grid, kappas=(1.0, 8.0, 64.0), n=200, k=0.1,
                           n1=50, n2=50):
    """E_N between two ring windows separated by d lattice sites.

    Group 1 is oscillators 0..n1-1, group 2 starts at n1 + d (mod n).
    Overlapping windows raise OverlappingGroupsError.
    """
    d_grid = [int(d) for d in d_grid]
    kappas = [float(kappa) for kappa in kappas]
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
    kappas = [float(kappa) for kappa in kappas]
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
    a dense N x N eigensolve allows.
    """
    n_grid = [int(n) for n in n_grid]
    kappas = [float(kappa) for kappa in kappas]
    for n in n_grid:
        if n < n1 + n2:
            raise ValueError(f"N = {n} cannot hold two windows of {n1} and {n2}")
    part = Bipartition(tuple(range(n1)), tuple(range(n1, n1 + n2)))
    rows = []
    for n in n_grid:
        rows += _ring_rows([n], [part], kappas, n, k)
    return SweepTable(("N", "kappa", "log_negativity", "negativity"), tuple(rows))


def fit_adjacent_cft(n1_values, e_values, block=100):
    """Straight-line fit of E_N against ln((block/pi) sin(pi n1 / block)).

    Returns b1 (4 times the slope), b2 (the intercept) and the rms residual.
    Endpoint rows (n1 = 0 or block) are excluded; at least 10 interior
    points are required.
    """
    n1 = np.asarray(n1_values, dtype=float)
    e = np.asarray(e_values, dtype=float)
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


def fit_kappa_asymptote(kappas, e_values, max_iter=500, step_tol=1e-10):
    """Fit E_N(kappa) = a - b/(kappa**c + d) by damped Gauss-Newton.

    Starts from a = max(E), b = a - min(E), c = 0.5, d = 1. The damping
    parameter grows tenfold on a rejected step and shrinks tenfold on an
    accepted one; convergence is a relative parameter step below 1e-10.

    Constant data converges immediately to b = 0 with c and d left at their
    starting values (unidentifiable); inspect params["b"] to detect it.

    Raises
    ------
    NoConvergenceError
        If max_iter iterations pass without the step shrinking to tolerance.
    """
    kappa = np.asarray(kappas, dtype=float)
    e = np.asarray(e_values, dtype=float)
    if kappa.size != e.size or kappa.size < 4:
        raise ValueError("need matching kappa / E arrays with at least 4 points")
    if np.any(kappa <= 0.0):
        raise ValueError("kappa grid must be positive")

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

    r = residual(theta)
    cost = float(r @ r)
    damping = 1e-3
    for _ in range(max_iter):
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
        if cost_new <= cost:
            rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(candidate), 1e-12)))
            theta, r, cost = candidate, r_new, cost_new
            damping = max(damping / 10.0, 1e-12)
            if rel_step < step_tol:
                rms = float(np.sqrt(cost / kappa.size))
                return FitResult(
                    params=dict(zip("abcd", (float(x) for x in theta))),
                    rms_residual=rms,
                    grid=tuple(kappa.tolist()),
                )
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    raise NoConvergenceError(
        f"asymptote fit did not converge in {max_iter} iterations"
    )

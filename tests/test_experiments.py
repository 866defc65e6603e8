"""Sweeps, tables, and the two fitting routines."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import curve_fit

from oscent.covariance import Bipartition, classical_covariance
from oscent.errors import (
    DegenerateDesignError,
    InvalidModelError,
    NoConvergenceError,
    OverlappingGroupsError,
    UnstableSystemError,
)
from oscent.experiments import (
    DEFAULT_KAPPAS,
    SweepTable,
    fit_adjacent_cft,
    fit_kappa_asymptote,
    lattice_adjacent_sweep,
    lattice_disjoint_sweep,
    lattice_size_sweep,
    read_sweep_csv,
    saturation_curve,
    sweep_ghoc_y2,
    sweep_two_mode_coupling,
)
from oscent.models import CircularLattice, normal_modes
from oscent.negativity import log_negativity

SIGMA_REF = 0.5167716231557249
GHOC_SIGMA_REF = 0.5075258825641088


# --- two-mode sweep ---------------------------------------------------------

def test_two_mode_sweep_columns_and_rows():
    table = sweep_two_mode_coupling((0.0, 10.0), alphas=(2.0,))
    assert table.columns == ("C", "sigma", "purity", "linear_entropy",
                             "von_neumann", "mu_2", "tsallis_2", "renyi_2")
    assert len(table.rows) == 2
    assert table.column("C").tolist() == [0.0, 10.0]


def test_two_mode_sweep_uncoupled_row_is_pure():
    table = sweep_two_mode_coupling((0.0,), alphas=(2.0, 8.0))
    row = table.to_records()[0]
    assert row["sigma"] == 0.5
    assert_allclose(row["purity"], 1.0, atol=1e-12)
    assert_allclose(row["von_neumann"], 0.0, atol=1e-12)
    assert_allclose(row["mu_8"], 1.0, atol=1e-12)


def test_two_mode_sweep_reference_point():
    table = sweep_two_mode_coupling((10.0,))
    assert_allclose(table.column("sigma")[0], SIGMA_REF, rtol=1e-12)


def test_two_mode_sweep_sigma_grows_with_coupling():
    table = sweep_two_mode_coupling(np.linspace(0.0, 19.5, 14))
    assert np.all(np.diff(table.column("sigma")) > 0.0)
    assert np.all(np.diff(table.column("purity")) < 0.0)


def test_two_mode_sweep_rejects_unstable_grid():
    with pytest.raises(InvalidModelError):
        sweep_two_mode_coupling((0.0, 10.0, 20.0))


def test_two_mode_sweep_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_two_mode_coupling(np.linspace(0.0, 15.0, 7)).write_csv(p1)
    sweep_two_mode_coupling(np.linspace(0.0, 15.0, 7)).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- generalized-chain sweep --------------------------------------------------

def test_ghoc_sweep_reference_point():
    # Default parameters (X1 = X2 = 2, Z = 1) at Y2 = 0.
    table = sweep_ghoc_y2((0.0,))
    assert_allclose(table.column("sigma")[0], GHOC_SIGMA_REF, rtol=1e-12)


def test_ghoc_sweep_beyond_stability_edge_raises():
    # Defaults are stable only for |Y2| < sqrt(8/3) ~ 1.633.
    with pytest.raises(UnstableSystemError):
        sweep_ghoc_y2(np.linspace(0.0, 1.7, 18))


def test_ghoc_sweep_purity_drops_toward_the_edge():
    table = sweep_ghoc_y2(np.linspace(0.0, 1.6, 9), x1=2.0, x2=2.0, z=1.0)
    purity = table.column("purity")
    assert np.all(np.diff(purity) < 0.0)
    assert table.columns[0] == "Y2"


# --- lattice sweeps -------------------------------------------------------------

def test_disjoint_sweep_symmetry_on_small_ring():
    table = lattice_disjoint_sweep((0, 5, 10, 15, 20), kappas=(4.0,),
                                   n=40, k=0.1, n1=10, n2=10)
    e = dict(zip(table.column("d"), table.column("log_negativity")))
    assert_allclose(e[5.0], e[15.0], atol=1e-8)
    assert_allclose(e[0.0], e[20.0], atol=1e-8)
    assert e[0.0] > e[10.0]


def test_disjoint_sweep_rejects_wrapping_overlap():
    with pytest.raises(OverlappingGroupsError):
        lattice_disjoint_sweep((35,), kappas=(4.0,), n=40, k=0.1, n1=10, n2=10)


def test_disjoint_sweep_column_order():
    table = lattice_disjoint_sweep((0, 5), kappas=(1.0, 8.0), n=40, k=0.1,
                                   n1=10, n2=10)
    assert table.columns == ("d", "kappa", "log_negativity", "negativity")
    # Row order: d outer, kappa inner.
    assert [r[:2] for r in table.rows] == [(0.0, 1.0), (0.0, 8.0),
                                           (5.0, 1.0), (5.0, 8.0)]


def test_adjacent_sweep_endpoints_are_exactly_zero():
    table = lattice_adjacent_sweep((0, 10, 20), kappas=(4.0,), n=40,
                                   k=1e-4, block=20)
    e = dict(zip(table.column("n1"), table.column("log_negativity")))
    assert e[0.0] == 0.0
    assert e[20.0] == 0.0
    assert e[10.0] > 0.0


def test_adjacent_sweep_rejects_out_of_block_values():
    for bad in (-1, 21):
        with pytest.raises(ValueError):
            lattice_adjacent_sweep((bad,), kappas=(4.0,), n=40, k=1e-4, block=20)


def test_size_sweep_decoupled_ring_is_zero():
    table = lattice_size_sweep((30, 40), kappas=(0.0,), k=0.1, n1=10, n2=10)
    assert np.all(table.column("log_negativity") == 0.0)


def test_size_sweep_rejects_rings_too_small_for_windows():
    with pytest.raises(ValueError):
        lattice_size_sweep((19,), kappas=(4.0,), k=0.1, n1=10, n2=10)


def test_size_sweep_settles_from_above():
    table = lattice_size_sweep((30, 40, 60, 80), kappas=(4.0,), k=0.1,
                               n1=10, n2=10)
    e = table.column("log_negativity")
    assert np.all(np.diff(e) < 0.0)
    assert np.all(np.abs(np.diff(e)[1:]) < np.abs(np.diff(e)[:-1]))


def test_ring_sweeps_match_the_dense_route():
    n, k, kappa = 24, 1e-3, 8.0
    dense = classical_covariance(normal_modes(CircularLattice(n, k, kappa)), np.ones(n))
    table = lattice_adjacent_sweep((0, 3, 7, 12), kappas=(kappa,), n=n, k=k, block=12)
    for n1, e in zip(table.column("n1"), table.column("log_negativity")):
        part = Bipartition(range(int(n1)), range(int(n1), 12))
        assert abs(e - log_negativity(dense, part).log_negativity) <= 1e-9
    table = lattice_disjoint_sweep((0, 4), kappas=(kappa,), n=n, k=k, n1=6, n2=6)
    for d, e in zip(table.column("d"), table.column("log_negativity")):
        part = Bipartition(range(6), [(6 + int(d) + j) % n for j in range(6)])
        assert abs(e - log_negativity(dense, part).log_negativity) <= 1e-9


def test_size_sweep_never_forms_the_ring_matrix():
    # A dense 100000 x 100000 float64 matrix alone would take 80 GB.
    table = lattice_size_sweep((100000,), kappas=(1.0,))
    e = table.column("log_negativity")
    assert e.shape == (1,) and np.isfinite(e[0]) and e[0] > 0.0


# --- tables -----------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    table = sweep_two_mode_coupling((0.0, 7.5, 13.0), alphas=(2.0, 64.0))
    path = tmp_path / "sweep.csv"
    table.write_csv(path)
    back = read_sweep_csv(path)
    assert back.columns == table.columns
    assert_allclose(np.array(back.rows), np.array(table.rows), rtol=0.0, atol=0.0)
    assert b"\r" not in path.read_bytes()


def test_json_round_trip(tmp_path):
    table = lattice_disjoint_sweep((0, 5), kappas=(1.0,), n=40, k=0.1,
                                   n1=10, n2=10)
    path = tmp_path / "sweep.json"
    table.write_json(path)
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    assert records == table.to_records()


def test_column_lookup_rejects_unknown_name():
    table = SweepTable(("a", "b"), ((1.0, 2.0),))
    with pytest.raises(ValueError):
        table.column("missing")


def test_reading_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_sweep_csv(path)


# --- CFT straight-line fit ---------------------------------------------------------

def synthetic_cft(n1_values, b1, b2, block=100):
    x = np.log((block / np.pi) * np.sin(np.pi * np.asarray(n1_values) / block))
    return (b1 / 4.0) * x + b2


def test_cft_fit_round_trip():
    n1 = np.arange(5, 100, 5)
    fit = fit_adjacent_cft(n1, synthetic_cft(n1, 2.5, 1.0))
    assert_allclose(fit.params["b1"], 2.5, rtol=1e-10)
    assert_allclose(fit.params["b2"], 1.0, rtol=1e-10)
    assert fit.rms_residual < 1e-12


def test_cft_fit_drops_endpoints():
    n1 = np.arange(5, 100, 5)
    e = synthetic_cft(n1, 2.5, 1.0)
    with_ends = fit_adjacent_cft(np.concatenate([[0], n1, [100]]),
                                 np.concatenate([[0.0], e, [0.0]]))
    without = fit_adjacent_cft(n1, e)
    assert with_ends.params == without.params
    assert with_ends.grid == without.grid


def test_cft_fit_needs_ten_interior_points():
    n1 = np.concatenate([[0, 100], np.arange(10, 90, 10)])
    e = np.zeros_like(n1, dtype=float)
    with pytest.raises(ValueError):
        fit_adjacent_cft(n1, e)


def test_cft_fit_rejects_constant_abscissa():
    with pytest.raises(DegenerateDesignError):
        fit_adjacent_cft([50] * 12, [1.0] * 12)


# --- saturation fit ------------------------------------------------------------------

REFERENCE = {"a": 2.458, "b": 2.149, "c": 0.641, "d": 0.875}


def test_kappa_fit_round_trip():
    kappa = np.geomspace(1.0, 64.0, 24)
    e = saturation_curve(kappa, **REFERENCE)
    fit = fit_kappa_asymptote(kappa, e)
    for name, ref in REFERENCE.items():
        assert_allclose(fit.params[name], ref, rtol=1e-6)
    assert fit.rms_residual < 1e-9


def test_kappa_fit_agrees_with_scipy():
    rng = np.random.default_rng(151)
    kappa = np.geomspace(1.0, 64.0, 30)
    e = saturation_curve(kappa, **REFERENCE) + rng.normal(0.0, 1e-4, kappa.size)
    mine = fit_kappa_asymptote(kappa, e)
    p0 = (float(np.max(e)), float(np.max(e) - np.min(e)), 0.5, 1.0)
    popt, _ = curve_fit(saturation_curve, kappa, e, p0=p0, maxfev=20000)
    assert_allclose([mine.params[k] for k in "abcd"], popt, rtol=1e-4)


def test_kappa_fit_constant_data_is_flagged_unidentifiable():
    fit = fit_kappa_asymptote(np.linspace(1.0, 64.0, 8), np.full(8, 3.0))
    assert fit.params["b"] == 0.0
    assert fit.rms_residual == 0.0


def test_kappa_fit_validation():
    with pytest.raises(ValueError):
        fit_kappa_asymptote([1.0, 2.0, 4.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_kappa_asymptote([1.0, 2.0, 4.0, 8.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_kappa_asymptote([0.0, 2.0, 4.0, 8.0], [0.1, 0.2, 0.3, 0.4])


def test_kappa_fit_iteration_cap_raises():
    kappa = np.geomspace(1.0, 64.0, 12)
    e = saturation_curve(kappa, **REFERENCE)
    with pytest.raises(NoConvergenceError):
        fit_kappa_asymptote(kappa, e, max_iter=0)


def test_default_kappa_grid():
    assert DEFAULT_KAPPAS == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

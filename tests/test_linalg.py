"""Eigendecomposition and symplectic-spectrum tests against independent oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oscent.errors import (
    AsymmetricInputError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    UnpairedSpectrumError,
)
from oscent.linalg import (
    _canonical_column_signs,
    _pair_up,
    eig_sym,
    jacobi_eig_sym,
    mat_pow,
    require_symmetric,
    symplectic_form,
    symplectic_spectrum,
)


def random_spd(rng, n, shift=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + shift * np.eye(n)


def random_symplectic(rng, n):
    # Product of generators: block rotation, mode scaling, and a shear.
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    rot = np.block([[q, np.zeros((n, n))], [np.zeros((n, n)), q]])
    d = np.exp(rng.uniform(-0.7, 0.7, size=n))
    scale = np.diag(np.concatenate([d, 1.0 / d]))
    f = rng.normal(size=(n, n))
    f = 0.5 * (f + f.T)
    shear = np.block([[np.eye(n), np.zeros((n, n))], [f, np.eye(n)]])
    return rot @ scale @ shear


def symplectic_oracle(cov):
    # Independent route: moduli of the complex eigenvalues of J^-1 cov,
    # which occur in +/- i nu pairs.
    n = cov.shape[0] // 2
    eigs = np.linalg.eigvals(np.linalg.solve(symplectic_form(n), cov))
    moduli = np.sort(np.abs(eigs))
    return 0.5 * (moduli[0::2] + moduli[1::2])


# --- require_symmetric ------------------------------------------------------

def test_require_symmetric_symmetrizes_roundoff():
    a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = require_symmetric(a)
    assert_array_equal(out, out.T)


def test_require_symmetric_rejects_asymmetry():
    with pytest.raises(AsymmetricInputError):
        require_symmetric(np.array([[1.0, 2.0], [2.5, 3.0]]))


def test_require_symmetric_rejects_nonsquare():
    with pytest.raises(AsymmetricInputError):
        require_symmetric(np.zeros((2, 3)))


# --- eig_sym ----------------------------------------------------------------

def test_eig_sym_hand_2x2():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3, eigenvectors (1, -+1)/sqrt2.
    w, v = eig_sym([[2.0, 1.0], [1.0, 2.0]])
    assert_allclose(w, [1.0, 3.0], atol=1e-14)
    assert_allclose(np.abs(v), np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-14)


def test_eig_sym_circulant_dft_oracle():
    # Circulant eigenvalues are the DFT of the first row.
    rng = np.random.default_rng(3)
    first = rng.normal(size=8)
    first = first + first[::-1].take(np.arange(-1, 7))  # symmetrize the circulant
    n = 8
    c = np.empty((n, n))
    for i in range(n):
        c[i] = np.roll(first, i)
    c = 0.5 * (c + c.T)
    w, _ = eig_sym(c)
    oracle = np.sort(np.fft.fft(c[0]).real)
    assert_allclose(w, oracle, atol=1e-12)


def test_eig_sym_ascending_orthonormal_reconstructs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_spd(rng, rng.integers(2, 9))
        w, v = eig_sym(a)
        assert np.all(np.diff(w) >= 0.0)
        assert_allclose(v.T @ v, np.eye(a.shape[0]), atol=1e-12)
        assert_allclose((v * w) @ v.T, a, atol=1e-10 * np.max(np.abs(a)))


def test_eig_sym_sign_convention_deterministic():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 6)
    _, v1 = eig_sym(a)
    _, v2 = eig_sym(a.copy())
    assert_array_equal(v1, v2)
    for k in range(6):
        col = v1[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0.0


def loop_column_signs(vecs):
    # The column-by-column rule that _canonical_column_signs vectorises.
    v = vecs.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0.0:
            v[:, k] = -col
    return v


def test_canonical_column_signs_match_the_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    random_cols = rng.normal(size=(7, 7))
    # Degenerate eigenspaces: eigh picks an arbitrary basis of each one.
    _, degenerate = np.linalg.eigh(np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]))
    _, ring = np.linalg.eigh(np.eye(8) * 2.0 - np.roll(np.eye(8), 1, axis=1)
                             - np.roll(np.eye(8), -1, axis=1))
    # Leading entries that are zero or below the 1e-12 cut decide nothing.
    leading = rng.normal(size=(6, 5))
    leading[:2, 0] = 0.0
    leading[:3, 1] = [-1e-13, 5e-13, -0.0]
    leading[:, 2] = 0.0
    leading[:, 3] = [-1e-14, 0.0, 1e-13, 0.0, 0.0, -2e-13]
    leading[0, 4] = -1e-12
    for vecs in (random_cols, -random_cols, degenerate, ring, leading,
                 np.zeros((0, 0))):
        expect = loop_column_signs(vecs)
        got = _canonical_column_signs(vecs)
        assert got.shape == expect.shape
        assert expect.tobytes() == got.tobytes()


# --- jacobi_eig_sym ---------------------------------------------------------

def test_jacobi_matches_lapack():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_spd(rng, rng.integers(2, 8), shift=0.1)
        wj, vj = jacobi_eig_sym(a)
        wl, _ = eig_sym(a)
        assert_allclose(wj, wl, rtol=1e-10, atol=1e-12)
        assert_allclose((vj * wj) @ vj.T, a, atol=1e-10 * np.max(np.abs(a)))


def test_jacobi_diagonal_is_exact():
    w, v = jacobi_eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert_array_equal(w, [1.0, 2.0, 3.0])
    assert_array_equal(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_jacobi_exhausted_budget_raises():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(NoConvergenceError):
        jacobi_eig_sym(a, max_sweeps=0)


# --- mat_pow ----------------------------------------------------------------

def test_mat_pow_square_root_squares_back():
    rng = np.random.default_rng(23)
    a = random_spd(rng, 5)
    root = mat_pow(a, 0.5)
    assert_allclose(root @ root, a, atol=1e-11 * np.max(np.abs(a)))


def test_mat_pow_group_property():
    rng = np.random.default_rng(29)
    a = random_spd(rng, 4)
    assert_allclose(mat_pow(a, 0.3) @ mat_pow(a, 0.7), a, atol=1e-11)
    assert_allclose(mat_pow(a, -1.0), np.linalg.inv(a), atol=1e-10)
    assert_allclose(mat_pow(a, 0.0), np.eye(4), atol=1e-13)


def test_mat_pow_integer_power_allows_indefinite():
    a = np.diag([2.0, -3.0])
    assert_allclose(mat_pow(a, 2), np.diag([4.0, 9.0]), atol=1e-14)


def test_mat_pow_fractional_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        mat_pow(np.diag([2.0, -3.0]), 0.5)
    with pytest.raises(NotPositiveDefiniteError):
        mat_pow(np.diag([2.0, 0.0]), -1.0)


# --- symplectic form and spectrum -------------------------------------------

def test_symplectic_form_squares_to_minus_identity():
    j = symplectic_form(3)
    assert_array_equal(j @ j, -np.eye(6))
    assert_array_equal(j.T, -j)


def test_symplectic_spectrum_single_mode():
    # diag(a, b) in (q, p) ordering has the single value sqrt(a b).
    cov = np.diag([2.0, 8.0])
    assert_allclose(symplectic_spectrum(cov), [4.0], atol=1e-14)


def test_symplectic_spectrum_thermal_diagonal():
    nu = np.array([0.5, 1.5, 4.0])
    cov = np.diag(np.concatenate([nu, nu]))
    assert_allclose(symplectic_spectrum(cov), np.sort(nu), atol=1e-13)


def test_symplectic_spectrum_matches_complex_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        cov = random_spd(rng, 2 * n, shift=1.0)
        got = symplectic_spectrum(cov)
        assert_allclose(got, symplectic_oracle(cov), rtol=1e-9, atol=1e-11)


def test_symplectic_spectrum_congruence_invariance():
    # S cov S^T with symplectic S preserves the spectrum.
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        nu = np.sort(rng.uniform(0.5, 4.0, size=n))
        cov = np.diag(np.concatenate([nu, nu]))
        s = random_symplectic(rng, n)
        moved = s @ cov @ s.T
        assert_allclose(symplectic_spectrum(moved), nu, rtol=1e-8, atol=1e-10)


def test_symplectic_spectrum_fast_vs_general():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        qq = random_spd(rng, n)
        pp = random_spd(rng, n)
        cov = np.block([[qq, np.zeros((n, n))], [np.zeros((n, n)), pp]])
        fast = symplectic_spectrum(cov, method="fast")
        general = symplectic_spectrum(cov, method="general")
        assert_allclose(fast, general, rtol=1e-9, atol=1e-11)


def test_symplectic_spectrum_auto_handles_cross_block():
    # Nonzero qp forces the general path; check against the complex oracle.
    rng = np.random.default_rng(43)
    base = random_spd(rng, 6, shift=1.0)
    assert_allclose(symplectic_spectrum(base, method="auto"),
                    symplectic_oracle(base), rtol=1e-9, atol=1e-11)


def test_symplectic_spectrum_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        symplectic_spectrum(np.diag([1.0, 0.0]))


def test_symplectic_spectrum_rejects_odd_dimension():
    with pytest.raises(AsymmetricInputError):
        symplectic_spectrum(np.eye(3))


def test_symplectic_spectrum_rejects_unknown_method():
    with pytest.raises(ValueError):
        symplectic_spectrum(np.eye(2), method="bogus")


def test_pair_up_rejects_unpaired_values():
    with pytest.raises(UnpairedSpectrumError):
        _pair_up(np.array([1.0, 1.0, 2.0, 3.0]), 3.0)


def test_pair_up_averages_roundoff_pairs():
    out = _pair_up(np.array([1.0 - 1e-12, 1.0 + 1e-12, 2.0, 2.0]), 2.0)
    assert_allclose(out, [1.0, 2.0], atol=1e-12)

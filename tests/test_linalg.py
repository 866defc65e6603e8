"""Eigendecomposition and symplectic-spectrum tests against independent oracles."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oscent.errors import (
    AsymmetricInputError,
    NotPositiveDefiniteError,
    UnpairedSpectrumError,
)
from oscent.covariance import Bipartition, classical_covariance, reduce_modes, ring_covariances
from oscent.linalg import (
    _block_product_eigvals,
    _canonical_column_signs,
    _general_spectrum,
    POSDEF_RTOL,
    _pair_up,
    eig_sym,
    require_symmetric,
    symplectic_form,
    symplectic_spectrum,
)
from oscent.models import CircularLattice, GeneralizedChain, normal_modes
from oscent.negativity import stacked_log_negativities


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


def test_require_symmetric_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf"), float("-inf")):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(AsymmetricInputError, match=r"non-finite entry .* at \(1, 2\)"):
            require_symmetric(a, name="A")


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
        (lam,) = _block_product_eigvals(qq, pp, [np.ones(n)])
        fast = np.sqrt(lam)
        general = _general_spectrum(require_symmetric(cov))
        assert_allclose(fast, general, rtol=1e-9, atol=1e-11)
        assert np.array_equal(symplectic_spectrum(cov), fast)


def test_symplectic_spectrum_auto_handles_cross_block():
    # Nonzero qp forces the general path; check against the complex oracle.
    rng = np.random.default_rng(43)
    base = random_spd(rng, 6, shift=1.0)
    assert_allclose(symplectic_spectrum(base),
                    symplectic_oracle(base), rtol=1e-9, atol=1e-11)


def eigh_general_route(cov):
    # The general route before the Cholesky form: cov^1/2 from a full eigh,
    # then eig(cov^1/2 J^T cov J cov^1/2), each squared value twice.
    a = require_symmetric(cov)
    n = a.shape[0] // 2
    w, v = np.linalg.eigh(a)
    assert w[0] > POSDEF_RTOL * w[-1]
    jl = symplectic_form(n) @ (v * np.sqrt(w)) @ v.T
    g = jl.T @ a @ jl
    squared = np.linalg.eigvalsh(0.5 * (g + g.T))
    return _pair_up(np.sqrt(np.maximum(squared, 0.0)), float(np.max(np.abs(a))))


def qp_chain_covariance(seed, n):
    # Random chain with a live q-p block; M = K - Y**2 is diagonally dominant.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    k = 0.5 * (a + a.T)
    np.fill_diagonal(k, 0.0)
    y = rng.uniform(-0.5, 0.5, size=n)
    k[np.diag_indices(n)] = np.sum(np.abs(k), axis=1) + 1.0 + y**2
    return classical_covariance(normal_modes(GeneralizedChain(K=k, Y=y)), np.ones(n))


def test_general_route_matches_the_eigh_route_on_qp_chains():
    n = 300
    cov = qp_chain_covariance(61, n)
    rng = np.random.default_rng(67)
    for m in (10, 50, 150, 300):
        subset = np.sort(rng.choice(n, size=m, replace=False))
        red = reduce_modes(cov, subset).matrix
        assert np.max(np.abs(red[:m, m:])) > 1e-3 * np.max(np.abs(red))
        got = _general_spectrum(require_symmetric(red))
        assert_allclose(got, eigh_general_route(red), rtol=1e-12, atol=0.0)
        # symplectic_spectrum undoes the shear and takes the fast route instead.
        assert_allclose(symplectic_spectrum(red), got, rtol=1e-12, atol=0.0)


def test_general_route_refuses_near_singular_cross_block_matrix():
    # Eigenvalue ratio 1e-13: the Cholesky factor exists, but the relative
    # positive-definiteness test still refuses the matrix.
    rng = np.random.default_rng(71)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    cov = (q * np.array([1e-13, 0.3, 0.5, 0.7, 0.9, 1.0])) @ q.T
    cov = 0.5 * (cov + cov.T)
    assert np.max(np.abs(cov[:3, 3:])) > 1e-2
    np.linalg.cholesky(cov)
    for route in (lambda x: _general_spectrum(require_symmetric(x)), symplectic_spectrum):
        with pytest.raises(NotPositiveDefiniteError):
            route(cov)


def test_general_route_maps_cholesky_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(NotPositiveDefiniteError, match="Cholesky"):
        _general_spectrum(require_symmetric(np.eye(4)))


def eigh_root_eigvals(qq, pp, signs):
    # The kernel before the Cholesky form: qq^1/2 from a full eigh, then
    # eig(qq^1/2 P pp P qq^1/2).
    wq, vq = np.linalg.eigh(0.5 * (qq + qq.T))
    root = vq * np.sqrt(wq)
    sym = root.T @ (pp * np.outer(signs, signs)) @ root
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def test_kernel_matches_mpmath_on_an_ill_conditioned_qq():
    # qq with eigenvalue ratio 1e-8; the oracle is eig(qq P pp P) at 40
    # digits from the nonsymmetric solver. Every eigenvalue is positive.
    rng = np.random.default_rng(0)
    m = 16
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    qq = (q * np.logspace(0.0, -8.0, m)) @ q.T
    qq = 0.5 * (qq + qq.T)
    pp = random_spd(rng, m, shift=1.0)
    signs = np.where(np.arange(m) < 7, 1.0, -1.0)
    with mpmath.workdps(40):
        product = mpmath.matrix(qq.tolist()) * mpmath.matrix(
            (pp * np.outer(signs, signs)).tolist())
        exact = np.sort([float(mpmath.re(e)) for e in
                         mpmath.eig(product, left=False, right=False)])
    (got,) = _block_product_eigvals(qq, pp, [signs])
    error = np.max(np.abs(got - exact) / exact)
    assert error <= 1e-9
    assert error <= np.max(np.abs(eigh_root_eigvals(qq, pp, signs) - exact) / exact)


def test_no_route_computes_eigenvectors(monkeypatch):
    # Only normal_modes needs eigenvectors; every spectrum and negativity
    # route gets by with eigenvalues and Cholesky factors.
    chain = reduce_modes(qp_chain_covariance(79, 12), range(8))
    general = random_spd(np.random.default_rng(83), 8, shift=1.0)
    rings = ring_covariances([CircularLattice(20, 0.1, kappa) for kappa in (1.0, 4.0)])
    parts = [Bipartition([0, 1, 2], [3, 4]), Bipartition([5], [0, 7])]

    def outputs():
        lambdas = [r.lambda_tilde for state in (chain, rings)
                   for per_state in stacked_log_negativities(state, parts) for r in per_state]
        return [symplectic_spectrum(chain.matrix),
                _general_spectrum(require_symmetric(general))] + lambdas

    expect = outputs()

    def fail(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    got = outputs()
    assert len(got) == len(expect) == 8
    for g, want in zip(got, expect):
        assert g.tobytes() == want.tobytes()


def test_kernel_maps_cholesky_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(NotPositiveDefiniteError, match="qq block has no Cholesky factor"):
        _block_product_eigvals(np.eye(3), np.eye(3), [np.ones(3)])


def test_symplectic_spectrum_rejects_non_finite_entries():
    rng = np.random.default_rng(73)
    cov = random_spd(rng, 4, shift=1.0)
    cov[0, 3] = cov[3, 0] = np.nan
    for route in (lambda x: _general_spectrum(require_symmetric(x)), symplectic_spectrum):
        with pytest.raises(AsymmetricInputError, match="non-finite"):
            route(cov)


def test_symplectic_spectrum_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        symplectic_spectrum(np.diag([1.0, 0.0]))


def test_symplectic_spectrum_rejects_odd_dimension():
    with pytest.raises(AsymmetricInputError):
        symplectic_spectrum(np.eye(3))


def test_symplectic_spectrum_takes_no_route_argument():
    # The matrix picks the route; a leftover route argument must not pass
    # silently, nor be taken as the name.
    with pytest.raises(TypeError):
        symplectic_spectrum(np.eye(2), method="general")
    with pytest.raises(TypeError):
        symplectic_spectrum(np.eye(2), "general")


def test_pair_up_rejects_unpaired_values():
    with pytest.raises(UnpairedSpectrumError):
        _pair_up(np.array([1.0, 1.0, 2.0, 3.0]), 3.0)


def test_pair_up_averages_roundoff_pairs():
    out = _pair_up(np.array([1.0 - 1e-12, 1.0 + 1e-12, 2.0, 2.0]), 2.0)
    assert_allclose(out, [1.0, 2.0], atol=1e-12)

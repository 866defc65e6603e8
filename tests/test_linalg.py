"""Eigendecomposition and symplectic-spectrum tests against independent oracles."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oscent.errors import (
    AsymmetricInputError,
    EmptySubsystemError,
    NotPositiveDefiniteError,
    UnpairedSpectrumError,
)
from oscent.covariance import Bipartition, RingCovariance, classical_covariance, reduce_modes
from oscent.linalg import (
    _block_product_eigvals,
    _general_spectrum,
    POSDEF_RTOL,
    _pair_up,
    require_symmetric,
    symplectic_form,
    symplectic_spectrum,
)
from oscent.models import CircularLattice, GeneralizedChain, normal_modes, stability
from oscent.negativity import log_negativity, stacked_log_negativities


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


def test_require_symmetric_near_the_largest_double():
    # a + a.T and a - a.T used to overflow here (a RuntimeWarning and an
    # infinite entry in the result).
    big = np.finfo(float).max
    a = np.array([[big, -big], [-big, 1.0]])
    assert_array_equal(require_symmetric(a), a)
    with pytest.raises(AsymmetricInputError, match="max asymmetry inf"):
        require_symmetric(np.array([[1.0, big], [-big, 1.0]]))


def test_require_symmetric_rejects_nonsquare():
    with pytest.raises(AsymmetricInputError):
        require_symmetric(np.zeros((2, 3)))


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


def direct_product_eigvals(qq, pp, signs):
    # The kernel before the one-product form: the full product
    # L^T (P pp P) L for every pattern, symmetrized, then eigvalsh.
    low = np.linalg.cholesky(qq)
    sym = low.T @ (pp * np.outer(signs, signs)) @ low
    return np.linalg.eigvalsh(0.5 * (sym + sym.T))


def test_kernel_matches_mpmath_on_an_interleaved_sign_pattern():
    # As above, with a pattern whose flipped rows are not a prefix, so the
    # correction pp[:, G] L[G, :c] reaches column 14 of 16 from rows
    # scattered through L. Both this kernel and the direct product inherit
    # their error from the Cholesky factor of the ill-conditioned qq; over
    # seeds the two agree to a few parts in 1e4, either way round.
    rng = np.random.default_rng(0)
    m = 16
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    qq = (q * np.logspace(0.0, -8.0, m)) @ q.T
    qq = 0.5 * (qq + qq.T)
    pp = random_spd(rng, m, shift=1.0)
    signs = np.array([1, -1, -1, 1, -1, 1, 1, -1, 1, 1, -1, -1, 1, -1, 1, 1], dtype=float)
    with mpmath.workdps(40):
        product = mpmath.matrix(qq.tolist()) * mpmath.matrix(
            (pp * np.outer(signs, signs)).tolist())
        exact = np.sort([float(mpmath.re(e)) for e in
                         mpmath.eig(product, left=False, right=False)])
    (got,) = _block_product_eigvals(qq, pp, [signs])
    error = np.max(np.abs(got - exact) / np.abs(exact))
    direct = np.max(np.abs(direct_product_eigvals(qq, pp, signs) - exact) / np.abs(exact))
    assert error <= 1e-9
    assert error <= 1.01 * direct


def test_kernel_gives_a_pattern_and_its_negation_the_same_bits():
    # P pp P = (-P) pp (-P): the kernel flips the rows whose sign differs
    # from the last, which names the same rows for both.
    rng = np.random.default_rng(15)
    qq = np.stack([random_spd(rng, 9) for _ in range(3)])
    pp = np.stack([random_spd(rng, 9) for _ in range(3)])
    for signs in (np.array([1, -1, 1, 1, -1, -1, 1, -1, -1.0]), np.ones(9),
                  np.array([-1.0] * 4 + [1.0] * 5)):
        plus, minus = _block_product_eigvals(qq, pp, [signs, -signs])
        assert plus.tobytes() == minus.tobytes()
        direct = np.stack([direct_product_eigvals(a, b, signs) for a, b in zip(qq, pp)])
        assert_allclose(plus, direct, rtol=1e-10)


def column_update_bound(qq, pp):
    # The roundoff allowed between the kernel's eigenvalues and those of
    # another evaluation of L^T T pp T L, in units of F = |L|^T |pp| |L|,
    # which bounds |L|^T |Z| entrywise for every sign pattern. Each of two
    # products carries at most m eps F per entry (Higham, *Accuracy and
    # Stability of Numerical Algorithms*, 2002, sec. 3.5), and F is
    # symmetric, so the symmetric matrices eigvalsh reads (lower triangle)
    # differ by at most 2 m eps ||F||_2 in the 2-norm; each eigvalsh adds
    # its backward error, taken as m eps ||X||_2 <= m eps ||F||_2. By
    # Weyl's inequality the eigenvalues then differ by at most
    # 4 m eps ||F||_2; the caller adds its own terms.
    m = qq.shape[-1]
    low = np.linalg.cholesky(qq)
    f = np.abs(low.T) @ np.abs(pp) @ np.abs(low)
    return m * np.finfo(float).eps * np.linalg.norm(f, 2)


def flipped_column_count(signs):
    # The kernel's c for a pattern: 0 for one sign, else max(G) + 1, at least 2.
    group = np.flatnonzero(signs * signs[-1] < 0.0)
    return max(group[-1] + 1, 2) if group.size else 0


def test_column_update_matches_the_full_product():
    # Every call writes only the first c = max(G) + 1 columns of each
    # pattern's L^T Z over X0 = L^T B (at least two; see the kernel). The
    # patterns flip a prefix, a scattered group, row 0 alone (c = 1, the
    # two-column case) and row m - 2 alone (c = m - 1, the largest: the
    # last member never flips). A pattern's bits depend on its own
    # operands alone, so each equals its lone call bit for bit, in the
    # given order, shuffled and with c falling. And each is held to the
    # textbook Z = (pp * s s^T) L: the kernel's Z is B - 2 pp[:, G] L[G, :c]
    # with the rows flipped, and B, the correction and the test's own
    # product each carry m eps |pp| |L|, the subtraction eps, so the two Z
    # add at most (4m + 1) eps F to X; with the products and solves of
    # column_update_bound, (8m + 1) eps ||F||_2, twice over for the
    # first-order terms it leaves out: 18 m eps ||F||_2.
    rng = np.random.default_rng(27)
    for _ in range(8):
        m = int(rng.integers(4, 41))
        a = rng.normal(size=(m, m))
        cov = classical_covariance(
            normal_modes(GeneralizedChain(K=a @ a.T + 0.5 * np.eye(m), Y=np.zeros(m))),
            np.ones(m))
        qq, pp = cov.qq, cov.pp
        scattered = np.ones(m)
        scattered[rng.choice(m - 1, size=(m - 1) // 2, replace=False)] = -1.0
        patterns = [np.where(np.arange(m) < m // 2, 1.0, -1.0), scattered,
                    np.where(np.arange(m) == 0, -1.0, 1.0),
                    np.where(np.arange(m) == m - 2, 1.0, -1.0), np.ones(m)]
        low = np.linalg.cholesky(qq)
        unit = column_update_bound(qq, pp)
        for order in (range(len(patterns)), (3, 0, 4, 2, 1),
                      sorted(range(len(patterns)),
                             key=lambda i: -flipped_column_count(patterns[i]))):
            call = [patterns[i] for i in order]
            for signs, got in zip(call, _block_product_eigvals(qq, pp, call)):
                (alone,) = _block_product_eigvals(qq, pp, [signs])
                assert got.tobytes() == alone.tobytes()
                want = np.linalg.eigvalsh(low.T @ ((pp * np.outer(signs, signs)) @ low))
                assert np.max(np.abs(got - want)) <= 18.0 * unit


def test_no_route_computes_eigenvectors(monkeypatch):
    # Only normal_modes needs eigenvectors; the stability test, every
    # spectrum and every negativity route get by with eigenvalues and
    # Cholesky factors.
    chain = reduce_modes(qp_chain_covariance(79, 12), range(8))
    general = random_spd(np.random.default_rng(83), 8, shift=1.0)
    rings = RingCovariance([CircularLattice(20, 0.1, kappa) for kappa in (1.0, 4.0)])
    parts = [Bipartition([0, 1, 2], [3, 4]), Bipartition([5], [0, 7])]

    def outputs():
        lambdas = [log_negativity(chain, part).lambda_tilde for part in parts]
        lambdas += [r.lambda_tilde for per_state in stacked_log_negativities(rings, parts)
                    for r in per_state]
        margins = [stability(model).min_eigenvalue for model in (
            GeneralizedChain(general[:4, :4], np.full(4, 0.3)), CircularLattice(8, 0.0, 1.0))]
        return [symplectic_spectrum(chain.matrix),
                _general_spectrum(require_symmetric(general)), np.array(margins)] + lambdas

    expect = outputs()

    def fail(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    got = outputs()
    assert len(got) == len(expect) == 9
    for g, want in zip(got, expect):
        assert g.tobytes() == want.tobytes()


def test_kernel_maps_cholesky_failure(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(NotPositiveDefiniteError, match="qq block has no Cholesky factor"):
        _block_product_eigvals(np.eye(3), np.eye(3), [np.ones(3)])


def test_certified_kernel_still_maps_cholesky_failure():
    # A certified stack skips the eigenvalue test, not the factor's own check.
    with pytest.raises(NotPositiveDefiniteError, match="qq block has no Cholesky factor"):
        _block_product_eigvals(-np.eye(3), np.eye(3), [np.ones(3)], certified=True)


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


def test_symplectic_spectrum_refuses_zero_by_zero():
    # It used to end in numpy's "zero-size array to reduction operation
    # maximum" error.
    with pytest.raises(EmptySubsystemError, match="0 x 0"):
        symplectic_spectrum(np.zeros((0, 0)))


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

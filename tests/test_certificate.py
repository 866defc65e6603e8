"""The certificate of normal-mode states: what it vouches for, and that it changes no bit.

A state built by classical_covariance is made exactly symmetric once, its
cross block is -qq Y by construction, and its qq spectrum is read from the
modes. Reports on it and on its reductions skip the symmetry, scale and
shear scans and the kernel's eigenvalue test. The same matrix handed in as a
bare CovarianceMatrix takes every check; both must give the same bits.
"""

import numpy as np
import pytest

import oscent.covariance as covariance
import oscent.linalg as linalg
from oscent.covariance import (
    Bipartition,
    CovarianceMatrix,
    RingCovariance,
    classical_covariance,
    reduce_modes,
    ring_windows,
)
from oscent.errors import AsymmetricInputError
from oscent.linalg import CROSS_BLOCK_RTOL, SYMMETRY_RTOL
from oscent.measures import DEFAULT_ALPHAS, measure_report, sigma_tilde
from oscent.models import (
    CircularLattice,
    GeneralizedChain,
    TwoModeGeneralized,
    normal_modes,
)
from oscent.negativity import log_negativity

from chains import random_chain

EPS = np.finfo(float).eps


def chain_state(seed, n, y_scale):
    """Unit-action state of a seeded chain with K - Y**2 positive definite."""
    chain = random_chain(np.random.default_rng(seed), n, y_scale)
    return classical_covariance(normal_modes(chain), np.ones(n))


def uncertified(cov):
    """The same entries as a bare CovarianceMatrix: every check runs."""
    twin = CovarianceMatrix(cov.matrix.copy(), cov.action)
    assert cov._certified and not twin._certified
    return twin


def report_cells(report):
    cells = [report.purity, report.linear_entropy, report.von_neumann]
    for alpha in sorted(report.families):
        fam = report.families[alpha]
        cells += [fam.purity, fam.tsallis, fam.renyi]
    return np.concatenate([report.sigma, cells])


def pure_cells(n):
    """report_cells of a pure n-mode state, and how far the solves may miss them.

    The widths are 1/2, the purity 1 and every entropy 0. The solves reach
    them within 1e-12, except Tsallis and Renyi at orders below 1: there a
    width 1/2 + d gives about n d**alpha / (1 - alpha), which turns d ~ 1e-15
    into about 2e-12 on 14 modes at order 0.9.
    """
    cells, tols = [1.0, 0.0, 0.0], [1e-12] * 3
    for alpha in sorted(DEFAULT_ALPHAS):
        cells += [np.nan if alpha == 1.0 else 1.0, 0.0, 0.0]
        tols += [1e-12] + [1e-11 if alpha < 1.0 else 1e-12] * 2
    return np.concatenate([np.full(n, 0.5), cells]), np.concatenate([np.full(n, 1e-12), tols])


def assert_same_bits(cov, subsets, cuts):
    twin = uncertified(cov)
    for subset in subsets:
        red, red_twin = reduce_modes(cov, subset), reduce_modes(twin, subset)
        assert red._certified and not red_twin._certified and not red_twin._pure
        assert np.array_equal(red.matrix, red_twin.matrix)
        got, want = measure_report(red), measure_report(red_twin)
        if red._pure:
            # The whole state reads its exact values; the solves on the bare
            # twin reach them to roundoff.
            exact, tol = pure_cells(red.n_modes)
            assert np.array_equal(sigma_tilde(red), exact[:red.n_modes])
            assert np.array_equal(report_cells(got), exact, equal_nan=True)
            miss = np.abs(report_cells(want) - exact)
            assert np.all(np.where(np.isnan(exact), np.isnan(miss), miss <= tol))
            continue
        assert sigma_tilde(red).tobytes() == sigma_tilde(red_twin).tobytes()
        assert report_cells(got).tobytes() == report_cells(want).tobytes()
    for group1, group2 in cuts:
        cut = Bipartition(group1, group2)
        got, want = log_negativity(cov, cut), log_negativity(twin, cut)
        assert got.lambda_tilde.tobytes() == want.lambda_tilde.tobytes()
        assert got.log_negativity == want.log_negativity


# --- the two routes agree bit for bit ------------------------------------------

@pytest.mark.parametrize("seed", [1901, 1902, 1903])
def test_certified_qp_chain_reports_match_the_checked_route(seed):
    cov = chain_state(seed, 14, y_scale=0.5)
    assert np.any(cov.qp != 0.0)
    rng = np.random.default_rng([seed, 1])
    subsets = [rng.choice(14, size, replace=False) for size in (1, 3, 6, 9)] + [range(14)]
    cuts = [((0, 3, 5), (1, 8)), ((2,), tuple(range(3, 14))), (tuple(range(14)), ())]
    assert_same_bits(cov, subsets, cuts)


def test_certified_chain_without_coupling_matches_the_checked_route():
    cov = chain_state(1904, 10, y_scale=0.0)
    assert not np.any(cov.qp)
    assert_same_bits(cov, [[0], [1, 4, 7], range(10)], [((0, 1), (2, 3)), ((5,), (9,))])


def test_certified_two_mode_generalized_matches_the_checked_route():
    for model in (TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.2, Z=1.0),
                  TwoModeGeneralized(X1=2.0, X2=3.0, Y1=0.5, Y2=1.2, Z=1.0)):
        cov = classical_covariance(normal_modes(model), np.ones(2))
        assert_same_bits(cov, [[0], [1], [0, 1]], [((0,), (1,)), ((1,), (0,))])


def test_certified_ring_reduction_matches_the_checked_route():
    model = CircularLattice(N=16, k=0.1, kappa=4.0)
    ring = RingCovariance([model])
    assert ring._certified
    idx = [0, 1, 2, 3, 8, 9, 10, 11]
    dense = reduce_modes(classical_covariance(normal_modes(model), np.ones(16)), idx)
    assert dense._certified
    (qq,), (pp,) = ring_windows(ring, idx)
    tol = 1e-12 * float(np.max(np.abs(dense.matrix)))
    assert np.max(np.abs(qq - dense.qq)) <= tol and np.max(np.abs(pp - dense.pp)) <= tol
    assert_same_bits(dense, [[0, 1, 2], [1, 4, 5, 7], range(8)],
                     [((0, 1, 2, 3), (4, 5, 6, 7)), ((0,), (5,))])


def test_certified_reports_make_no_symmetry_check(monkeypatch):
    calls = []
    require_symmetric = linalg.require_symmetric

    def spy(mat, name="matrix"):
        calls.append((name, np.shape(mat)))
        return require_symmetric(mat, name=name)

    monkeypatch.setattr(linalg, "require_symmetric", spy)
    monkeypatch.setattr(covariance, "require_symmetric", spy)
    cov = chain_state(1905, 8, y_scale=0.5)
    # Built once, checked once: the state's blocks (normal_modes trusts the
    # model's exactly symmetric M).
    assert calls == [("qq", (8, 8)), ("pp", (8, 8))]
    calls.clear()
    measure_report(reduce_modes(cov, [0, 2, 5]))
    log_negativity(cov, Bipartition((0, 2), (5,)))
    assert calls == []
    measure_report(reduce_modes(uncertified(cov), [0, 2, 5]))
    assert calls == [("covariance", (6, 6))]
    log_negativity(uncertified(cov), Bipartition((0, 2), (5,)))
    assert calls == [("covariance", (6, 6)), ("reduced covariance", (6, 6))]


def test_tiny_shear_gap_between_the_routes_is_bounded():
    # A cross block below CROSS_BLOCK_RTOL * max|cov| is a zero block to the
    # checked route, which keeps pp; the certified route still undoes the
    # shear Y it reads. The checked route thus drops qq Y qq Y = qp qp from
    # qq pp_u. By Weyl each lambda = nu**2 moves by at most
    # ||L^T Y L||**2 = rho(qp)**2 <= (m max|qp|)**2 (qq = L L^T), and with
    # nu >= c, sigma = nu / 2c by at most (m max|qp| / 2c)**2. Stiff modes
    # (omega near 1e6) make max|cov| large enough for that to show: here the
    # gap reads about 4e-14, while the certified route agrees with the
    # unsheared twin GeneralizedChain(K - Y**2, 0) to roundoff.
    rng = np.random.default_rng(1906)
    n = 6
    a = rng.normal(size=(n, n))
    m = (a @ a.T + 0.5 * np.eye(n)) * 1e12
    free = classical_covariance(normal_modes(GeneralizedChain(K=m, Y=np.zeros(n))),
                                np.ones(n))
    y = (rng.uniform(0.5, 0.9, size=n) * rng.choice([-1.0, 1.0], size=n)
         * CROSS_BLOCK_RTOL * np.max(np.abs(free.matrix)) / np.diag(free.qq) / n)
    cov = classical_covariance(normal_modes(GeneralizedChain(K=m + np.diag(y**2), Y=y)),
                               np.ones(n))
    twin = uncertified(cov)
    widest = 0.0
    for subset in ([0, 1, 2], [0, 3, 4, 5], range(n)):
        red, red_twin = reduce_modes(cov, subset), reduce_modes(twin, subset)
        k = red.n_modes
        qp_max = float(np.max(np.abs(red.qp)))
        assert 0.0 < qp_max <= CROSS_BLOCK_RTOL * np.max(np.abs(red.matrix))
        got, checked = sigma_tilde(red), sigma_tilde(red_twin)
        exact = sigma_tilde(reduce_modes(free, subset))
        gap = float(np.max(np.abs(got - checked)))
        assert gap <= (k * qp_max / (2.0 * red.action)) ** 2
        assert np.max(np.abs(got - exact)) <= 4.0 * EPS
        widest = max(widest, gap)
    assert 4.0 * EPS < widest < 1e-13


# --- what the certificate vouches for ------------------------------------------

def test_normal_mode_states_and_their_reductions_are_exactly_symmetric():
    for cov in (chain_state(1907, 30, y_scale=0.5), chain_state(1908, 7, y_scale=0.0),
                classical_covariance(normal_modes(TwoModeGeneralized(2.0, 3.0, 0.5, 1.2, 1.0)),
                                     np.array([1.0, 2.0]))):
        assert np.array_equal(cov.matrix, cov.matrix.T)
        n = cov.n_modes
        for subset in ([0], [0, n - 1], range(0, n, 2), range(n)):
            red = reduce_modes(cov, subset).matrix
            assert np.array_equal(red, red.T)


def test_hand_built_asymmetric_state_is_still_refused():
    m = uncertified(chain_state(1909, 4, y_scale=0.5)).matrix.copy()   # a state's is read-only
    m[0, 1] += 1e3 * SYMMETRY_RTOL * np.max(np.abs(m))
    bent = CovarianceMatrix(m, 1.0)
    with pytest.raises(AsymmetricInputError, match="not symmetric"):
        sigma_tilde(bent)
    with pytest.raises(AsymmetricInputError, match="not symmetric"):
        log_negativity(bent, Bipartition((0,), (1,)))


def test_hand_built_non_shear_cross_block_takes_the_general_route(monkeypatch):
    calls = []
    general = linalg._general_spectrum

    def spy(a):
        calls.append(np.shape(a))
        return general(a)

    monkeypatch.setattr(linalg, "_general_spectrum", spy)
    m = 2.0 * chain_state(1910, 3, y_scale=0.5).matrix   # a mixed state, room to move
    m[0, 4] += 0.05   # an off-diagonal cross entry that no local shear makes
    m[4, 0] += 0.05
    sigma_tilde(CovarianceMatrix(m, 1.0))
    assert calls == [(6, 6)]


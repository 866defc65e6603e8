"""Position-momentum coupled models against their unsheared oracles.

Every model's cross block is a local shear qp = -qq Y with Y diagonal, which
the symplectic map (q, p) -> (q, p + Y q), acting on each oscillator alone,
removes. So GeneralizedChain(K, Y) and GeneralizedChain(K - diag(Y**2), 0),
which share their normal modes, must give the same spectra, measures and
log-negativities, and the fast route on the unsheared blocks must agree with
the general symplectic route, which undoes nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oscent.covariance import Bipartition, classical_covariance, reduce_modes
from oscent.linalg import (
    _block_product_eigvals,
    _general_spectrum,
    _unsheared_blocks,
    require_symmetric,
    symplectic_spectrum,
)
from oscent.measures import measure_report, sigma_tilde
from oscent.models import GeneralizedChain, TwoModeGeneralized, normal_modes
from oscent.negativity import log_negativity, log_negativity_via_symplectic

RTOL = 1e-12
# Values that vanish in exact arithmetic (a nearly pure subsystem, E_N of a
# nearly decoupled cut) are compared absolutely: the entropies have infinite
# slope at sigma = 1/2, so a 1e-15 roundoff in sigma reads as ~1e-13 there.
ATOL_AT_ZERO = 1e-12


def chain_pair(k_off, y, margin):
    """The Y-coupled chain and its unsheared twin with the same M = K - Y**2."""
    n = y.size
    k = 0.5 * (k_off + k_off.T)
    np.fill_diagonal(k, 0.0)
    k[np.diag_indices(n)] = np.sum(np.abs(k), axis=1) + margin + y**2
    return GeneralizedChain(K=k, Y=y), GeneralizedChain(K=k - np.diag(y**2), Y=np.zeros(n))


def product_route(cov):
    """The fast symplectic route by hand: unshear pp, then the block product."""
    _, qq, pp = _unsheared_blocks(cov, "covariance")
    if pp is None:
        return None
    (lam,) = _block_product_eigvals(qq, pp, [np.ones(qq.shape[0])])
    return np.sqrt(lam)


def unit_state(model):
    n = np.asarray(model.Y).size
    return classical_covariance(normal_modes(model), np.ones(n))


def random_spd_cross_block(rng, n):
    # A random positive-definite matrix; its cross block is no shear.
    a = rng.normal(size=(2 * n, 2 * n))
    return a @ a.T + 2.0 * n * np.eye(2 * n)


def chain_qp_covariance(seed, n=300):
    # The seeded chain of the chain-qp benchmark workload: off-diagonal K in
    # [-1, 1], Y in [-0.5, 0.5], rows of M diagonally dominant by 1.
    rng = np.random.default_rng([seed, 0])
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    k = 0.5 * (a + a.T)
    np.fill_diagonal(k, 0.0)
    y = rng.uniform(-0.5, 0.5, size=n)
    k[np.diag_indices(n)] = np.sum(np.abs(k), axis=1) + 1.0 + y**2
    return unit_state(GeneralizedChain(K=k, Y=y))


@settings(max_examples=60)
@given(data=st.data())
def test_y_chain_equals_its_unsheared_twin(data):
    n = data.draw(st.integers(2, 6), label="n")
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    k_off = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n),
                               label="k_off")).reshape(n, n)
    y = np.array(data.draw(st.lists(st.floats(-1.5, 1.5, allow_nan=False),
                                    min_size=n, max_size=n), label="y"))
    margin = data.draw(st.floats(0.05, 2.0), label="margin")
    coupled, free = map(unit_state, chain_pair(k_off, y, margin))
    assert_allclose(sigma_tilde(coupled), sigma_tilde(free), rtol=RTOL, atol=0.0)

    sub = list(range((n + 1) // 2))
    got, want = measure_report(reduce_modes(coupled, sub)), measure_report(reduce_modes(free, sub))
    assert_allclose(got.sigma, want.sigma, rtol=RTOL, atol=0.0)
    assert_allclose(got.purity, want.purity, rtol=RTOL, atol=0.0)
    assert_allclose([got.linear_entropy, got.von_neumann],
                    [want.linear_entropy, want.von_neumann], rtol=RTOL, atol=ATOL_AT_ZERO)
    for alpha, fam in got.families.items():
        other = want.families[alpha]
        assert_allclose([fam.purity, fam.tsallis, fam.renyi],
                        [other.purity, other.tsallis, other.renyi],
                        rtol=RTOL, atol=ATOL_AT_ZERO, equal_nan=True)

    part = Bipartition(tuple(range(n // 2)), tuple(range(n // 2, n)))
    e_got, e_want = log_negativity(coupled, part), log_negativity(free, part)
    assert_allclose(e_got.lambda_tilde, e_want.lambda_tilde, rtol=RTOL, atol=0.0)
    assert_allclose(e_got.log_negativity, e_want.log_negativity, rtol=RTOL, atol=ATOL_AT_ZERO)


def test_unsheared_spectra_match_general_route_on_chain_qp():
    cov = chain_qp_covariance(1)
    rng = np.random.default_rng([1, 1])
    for m in (10, 50, 100, 150, 300):
        subset = np.sort(rng.choice(cov.n_modes, size=m, replace=False))
        red = reduce_modes(cov, subset).matrix
        assert np.max(np.abs(red[:m, m:])) > 1e-3 * np.max(np.abs(red))
        general = _general_spectrum(require_symmetric(red))
        fast = product_route(red)
        assert_allclose(fast, general, rtol=RTOL, atol=0.0)
        assert np.array_equal(symplectic_spectrum(red), fast)


def test_product_route_matches_symplectic_oracle_on_y_chains():
    rng = np.random.default_rng(211)
    entangled = 0
    for n in (2, 4, 7):
        chain, _ = chain_pair(rng.uniform(-1.0, 1.0, size=(n, n)),
                              rng.uniform(-1.0, 1.0, size=n), 0.3)
        cov = unit_state(chain)
        for _ in range(4):
            members = rng.permutation(n)[: int(rng.integers(2, n + 1))]
            cut = int(rng.integers(1, members.size))
            part = Bipartition(members[:cut].tolist(), members[cut:].tolist())
            product = log_negativity(cov, part)
            oracle = log_negativity_via_symplectic(cov, part)
            assert_allclose(product.lambda_tilde, oracle.lambda_tilde, rtol=1e-10)
            assert_allclose(product.log_negativity, oracle.log_negativity,
                            rtol=1e-10, atol=1e-12)
            entangled += product.log_negativity > 0.01
    assert entangled >= 4  # the comparison is not between zeros


def test_unsheared_block_is_pp_itself_without_cross_block_and_none_for_no_shear():
    rng = np.random.default_rng(223)
    a = random_spd_cross_block(rng, 3)
    a[:3, 3:] = a[3:, :3] = 0.0
    sym, qq, pp = _unsheared_blocks(a, "covariance")
    # pp is the block of the symmetrized matrix itself, which for an exactly
    # symmetric input holds the same bits.
    assert pp.base is sym and qq.base is sym
    assert_array_equal(sym, a)
    b = random_spd_cross_block(rng, 3)
    assert _unsheared_blocks(b, "covariance")[2] is None


def test_fast_route_unshears_or_refuses():
    # Before the unshear, the fast route ignored the cross block and read
    # [1.0078, 1.0368, 1.0389] here, against [1.0002, 1.0047, 1.0104].
    rng = np.random.default_rng(227)
    chain, free = chain_pair(rng.uniform(-1.0, 1.0, size=(6, 6)),
                             rng.uniform(-0.5, 0.5, size=6), 1.0)
    red = reduce_modes(unit_state(chain), [0, 1, 2]).matrix
    fast = product_route(red)
    assert_allclose(fast, _general_spectrum(require_symmetric(red)), rtol=RTOL, atol=0.0)
    assert_allclose(fast, symplectic_spectrum(reduce_modes(unit_state(free), [0, 1, 2]).matrix),
                    rtol=RTOL, atol=0.0)
    other = random_spd_cross_block(rng, 3)
    assert product_route(other) is None
    assert np.array_equal(symplectic_spectrum(other),
                          _general_spectrum(require_symmetric(other)))


def test_whole_system_stays_pure_next_to_the_stability_edge():
    # Smallest frequency 1.65e-2: the unshear takes Y qq Y = 145.16 from
    # pp = 145.36 to leave 0.197, and the whole state must still read pure.
    modes = normal_modes(TwoModeGeneralized(2.0, 2.0, 0.0, 1.6329, 1.0))
    assert modes.omegas[0] < 0.02
    cov = classical_covariance(modes, np.ones(2))
    assert np.max(np.abs(symplectic_spectrum(cov.matrix) - 1.0)) < 1e-12

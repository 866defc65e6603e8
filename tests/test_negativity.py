"""Logarithmic negativity: both evaluation routes, oracles, and guards."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oscent.covariance import (
    Bipartition,
    CovarianceMatrix,
    classical_covariance,
    quantum_ground_covariance,
    reduce_modes,
    ring_covariance,
)
from oscent.errors import (
    ComplexEigenvalueError,
    CrossBlockNotZeroError,
    NotPositiveDefiniteError,
)
from oscent.models import CircularLattice, GeneralizedChain, TwoMode, normal_modes
from oscent.negativity import (
    log_negativities,
    log_negativity,
    log_negativity_via_symplectic,
)


def random_chain(rng, n):
    a = rng.normal(size=(n, n))
    return GeneralizedChain(K=a @ a.T + 0.5 * np.eye(n), Y=np.zeros(n))


def random_partition(rng, n):
    cut = int(rng.integers(1, n))
    modes = rng.permutation(n)
    return Bipartition(modes[:cut].tolist(), modes[cut:].tolist())


def brute_force_lambdas(cov, partition):
    # Direct eigenvalues of qq P pp P on the reduced unit blocks, computed
    # with a plain nonsymmetric solver as an independent oracle.
    members = partition.members
    idx = np.concatenate([members, [m + cov.n_modes for m in members]])
    red = cov.matrix[np.ix_(idx, idx)] / cov.action_scale
    m = len(members)
    signs = partition.momentum_signs()
    p = np.diag(signs)
    lam = np.linalg.eigvals(red[:m, :m] @ p @ red[m:, m:] @ p)
    assert np.max(np.abs(lam.imag)) < 1e-10
    return np.sort(lam.real)


def one_partition_lambdas(cov, partition):
    # The one-partition arithmetic as it stood before the batch existed,
    # step for step, so the batch can be held to it bit for bit.
    red = reduce_modes(cov, partition.members)
    qq_u, pp_u = red.qq / red.action_scale, red.pp / red.action_scale
    signs = partition.momentum_signs()
    flipped_pp = pp_u * np.outer(signs, signs)
    wq, vq = np.linalg.eigh(0.5 * (qq_u + qq_u.T))
    root = vq * np.sqrt(wq)
    sym = root.T @ flipped_pp @ root
    lambdas = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return np.maximum(lambdas, np.finfo(float).tiny)


def test_decoupled_lattice_is_exactly_zero():
    cov = classical_covariance(normal_modes(CircularLattice(N=8, k=0.5, kappa=0.0)),
                               np.ones(8))
    part = Bipartition([0, 1, 2], [4, 5])
    assert log_negativity(cov, part).log_negativity == 0.0
    assert log_negativity_via_symplectic(cov, part).log_negativity == 0.0
    for n in (8, 9, 200):
        ring = ring_covariance(CircularLattice(N=n, k=0.5, kappa=0.0))
        for part in (Bipartition([0, 1, 2], [4, 5]), Bipartition([0, 1], [2, 3]),
                     Bipartition([n - 1], [0, 1])):
            assert log_negativity(ring, part).log_negativity == 0.0
            assert log_negativity_via_symplectic(ring, part).log_negativity == 0.0


def test_single_group_partition_is_zero():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    result = log_negativity(cov, Bipartition([0, 1], []))
    assert result.log_negativity == 0.0
    assert result.negativity == 0.0


def test_two_mode_pair_against_brute_force():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    part = Bipartition([0], [1])
    result = log_negativity(cov, part)
    assert result.log_negativity > 0.0
    oracle = brute_force_lambdas(cov, part)
    assert_allclose(result.lambda_tilde, oracle, rtol=1e-10)
    expected = -np.sum(np.log2(oracle[oracle < 1.0 - 1e-12]))
    assert_allclose(result.log_negativity, expected, rtol=1e-10)


def test_routes_agree_on_random_chains():
    rng = np.random.default_rng(131)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        cov = classical_covariance(normal_modes(random_chain(rng, n)), np.ones(n))
        part = random_partition(rng, n)
        r1 = log_negativity(cov, part)
        r2 = log_negativity_via_symplectic(cov, part)
        assert_allclose(r1.log_negativity, r2.log_negativity,
                        rtol=1e-9, atol=1e-9)
        assert_allclose(r1.lambda_tilde, r2.lambda_tilde, rtol=1e-8, atol=1e-10)


def test_batch_equals_one_partition_at_a_time_bit_for_bit():
    rng = np.random.default_rng(163)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        cov = classical_covariance(normal_modes(random_chain(rng, n)), np.ones(n))
        # Several sign patterns over the same members, plus other member sets.
        parts = [random_partition(rng, n) for _ in range(4)]
        parts += [Bipartition([0], [n - 1]), Bipartition([1, 2], []),
                  Bipartition([0], [n - 1])]
        batch = log_negativities(cov, parts)
        assert len(batch) == len(parts)
        for part, got in zip(parts, batch):
            one = log_negativity(cov, part)
            assert got.lambda_tilde.tobytes() == one.lambda_tilde.tobytes()
            assert got.lambda_tilde.tobytes() == one_partition_lambdas(cov, part).tobytes()
            assert got.log_negativity == one.log_negativity
            assert got.negativity == one.negativity


def test_ring_state_matches_dense_route():
    model = CircularLattice(N=30, k=1e-4, kappa=16.0)
    dense = classical_covariance(normal_modes(model), np.ones(30))
    ring = ring_covariance(model)
    parts = [Bipartition(range(n1), range(n1, 12)) for n1 in (0, 3, 6, 12)]
    parts.append(Bipartition([28, 29, 0], [1, 2, 3, 4]))
    for part, got in zip(parts, log_negativities(ring, parts)):
        expect = log_negativity(dense, part).log_negativity
        assert abs(got.log_negativity - expect) <= 1e-9
        assert abs(log_negativity_via_symplectic(ring, part).log_negativity
                   - expect) <= 1e-9


def test_lambdas_sorted_ascending_both_routes():
    rng = np.random.default_rng(137)
    cov = classical_covariance(normal_modes(random_chain(rng, 6)), np.ones(6))
    part = Bipartition([0, 2, 4], [1, 5])
    for result in (log_negativity(cov, part),
                   log_negativity_via_symplectic(cov, part)):
        assert np.all(np.diff(result.lambda_tilde) >= 0.0)
        assert result.lambda_tilde.shape == (5,)


def test_swapping_groups_changes_nothing():
    rng = np.random.default_rng(139)
    cov = classical_covariance(normal_modes(random_chain(rng, 5)), np.ones(5))
    a = log_negativity(cov, Bipartition([0, 1], [3, 4]))
    b = log_negativity(cov, Bipartition([3, 4], [0, 1]))
    assert a.log_negativity == b.log_negativity
    assert_array_equal(a.lambda_tilde, b.lambda_tilde)


def test_quantum_ground_state_gives_same_negativity():
    model = TwoMode(A=5.0, B=20.0, C=10.0)
    part = Bipartition([0], [1])
    classical = classical_covariance(normal_modes(model), np.full(2, 0.35))
    quantum = quantum_ground_covariance(normal_modes(model), hbar=0.7)
    assert_allclose(log_negativity(classical, part).log_negativity,
                    log_negativity(quantum, part).log_negativity, rtol=1e-10)


def test_negativity_grows_with_coupling():
    values = []
    for c in (2.0, 5.0, 10.0, 15.0, 19.0):
        cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=c)),
                                   np.ones(2))
        values.append(log_negativity(cov, Bipartition([0], [1])).log_negativity)
    assert np.all(np.diff(values) > 0.0)


def test_live_cross_block_rejected_by_both_routes():
    chain = GeneralizedChain(K=np.array([[2.0, 0.5], [0.5, 2.0]]),
                             Y=np.array([0.4, 0.4]))
    cov = classical_covariance(normal_modes(chain), np.ones(2))
    part = Bipartition([0], [1])
    with pytest.raises(CrossBlockNotZeroError):
        log_negativity(cov, part)
    with pytest.raises(CrossBlockNotZeroError):
        log_negativity_via_symplectic(cov, part)


def test_off_axis_eigenvalues_raise_on_symplectic_route():
    # pp indefinite makes J^-1 C_pt acquire real eigenvalues.
    adversarial = CovarianceMatrix(np.diag([1.0, 1.0, -1.0, 1.0]),
                                   "classical", 1.0)
    with pytest.raises(ComplexEigenvalueError):
        log_negativity_via_symplectic(adversarial, Bipartition([0], [1]))


def test_indefinite_position_block_raises_on_product_route():
    bad = CovarianceMatrix(np.diag([-1.0, 1.0, 1.0, 1.0]), "classical", 1.0)
    with pytest.raises(NotPositiveDefiniteError):
        log_negativity(bad, Bipartition([0], [1]))


def test_nonuniform_actions_rejected():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        log_negativity(cov, Bipartition([0], [1]))


def test_negativity_matches_log_negativity():
    rng = np.random.default_rng(149)
    cov = classical_covariance(normal_modes(random_chain(rng, 4)), np.ones(4))
    result = log_negativity(cov, Bipartition([0, 1], [2, 3]))
    assert_allclose(result.negativity,
                    0.5 * (2.0**result.log_negativity - 1.0), rtol=1e-15)


def test_partition_on_subset_of_lattice():
    # Groups that do not cover the system: reduction happens first.
    cov = classical_covariance(normal_modes(CircularLattice(N=12, k=0.1, kappa=2.0)),
                               np.ones(12))
    part = Bipartition([0, 1], [6, 7])
    r1 = log_negativity(cov, part)
    r2 = log_negativity_via_symplectic(cov, part)
    assert_allclose(r1.log_negativity, r2.log_negativity, rtol=1e-9, atol=1e-12)
    assert r1.lambda_tilde.shape == (4,)

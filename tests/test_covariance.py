"""Covariance assembly against closed forms and the brute-force angle average."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import sqrtm

from oscent.covariance import (
    Bipartition,
    CovarianceMatrix,
    RingCovariance,
    angle_average_covariance,
    classical_covariance,
    partial_transpose,
    quantum_ground_covariance,
    reduce_modes,
    ring_covariance,
    ring_covariances,
)
from oscent.errors import (
    DimensionTooLargeError,
    EmptySubsystemError,
    IndexOutOfRangeError,
    OverlappingGroupsError,
)
from oscent.measures import purity_from_determinant, sigma_tilde
from oscent.models import (
    CircularLattice,
    GeneralizedChain,
    TwoMode,
    TwoModeGeneralized,
    m_matrix,
    normal_modes,
    two_mode_angles,
)


def random_chain(rng, n, y_scale=0.5):
    a = rng.normal(size=(n, n))
    m = a @ a.T + 0.5 * np.eye(n)
    y = rng.uniform(-y_scale, y_scale, size=n)
    return GeneralizedChain(K=m + np.diag(y**2), Y=y)


# --- classical covariance ----------------------------------------------------

def test_uniform_actions_give_matrix_power_blocks():
    # With Y = 0 and all actions c the blocks are c M^(-1/2) and c M^(1/2).
    rng = np.random.default_rng(67)
    chain = random_chain(rng, 5, y_scale=0.0)
    c = 1.7
    cov = classical_covariance(normal_modes(chain), np.full(5, c))
    m = m_matrix(chain)
    root = sqrtm(m)   # Schur method, independent of the eigh in normal_modes
    assert_allclose(cov.qq, c * np.linalg.inv(root), atol=1e-10)
    assert_allclose(cov.pp, c * root, atol=1e-10)
    assert_array_equal(cov.qp, np.zeros((5, 5)))
    assert cov.action == c


def test_two_mode_entrywise_closed_form():
    # Mode 1 mixes in with cos(beta), mode 2 with sin(beta).
    model = TwoMode(A=5.0, B=20.0, C=10.0)
    ang = two_mode_angles(model)
    i1, i2 = 1.0, 2.0
    cov = classical_covariance(normal_modes(model), np.array([i1, i2]))
    c, s = np.cos(ang.angle), np.sin(ang.angle)
    w1, w2 = ang.omega1, ang.omega2
    qq = np.array([
        [i1 * c * c / w1 + i2 * s * s / w2, (-i1 / w1 + i2 / w2) * s * c],
        [(-i1 / w1 + i2 / w2) * s * c, i1 * s * s / w1 + i2 * c * c / w2],
    ])
    pp = np.array([
        [i1 * c * c * w1 + i2 * s * s * w2, (-i1 * w1 + i2 * w2) * s * c],
        [(-i1 * w1 + i2 * w2) * s * c, i1 * s * s * w1 + i2 * c * c * w2],
    ])
    assert_allclose(cov.qq, qq, atol=1e-10)
    assert_allclose(cov.pp, pp, atol=1e-10)
    assert_array_equal(cov.qp, np.zeros((2, 2)))
    assert cov.action is None  # actions differ


def test_cross_block_follows_momentum_coupling():
    chain = GeneralizedChain(K=np.array([[3.0, -1.0], [-1.0, 4.0]]),
                             Y=np.array([0.4, -0.3]))
    cov = classical_covariance(normal_modes(chain), np.ones(2))
    # qp = -qq Y entry by entry, and pp carries the Y qq Y correction.
    assert_allclose(cov.qp, -cov.qq * np.array([0.4, -0.3])[np.newaxis, :],
                    atol=1e-14)
    assert np.max(np.abs(cov.qp)) > 1e-3
    y = np.diag([0.4, -0.3])
    chain0 = GeneralizedChain(K=m_matrix(chain), Y=np.zeros(2))
    pp_free = classical_covariance(normal_modes(chain0), np.ones(2)).pp
    assert_allclose(cov.pp, pp_free + y @ cov.qq @ y, atol=1e-12)


def test_zero_coupling_blocks_are_diagonal():
    cov = classical_covariance(normal_modes(TwoMode(A=4.0, B=9.0, C=0.0)),
                               np.array([0.7, 1.3]))
    assert_allclose(cov.qq, np.diag([0.7 / 2.0, 1.3 / 3.0]), atol=1e-14)
    assert_allclose(cov.pp, np.diag([0.7 * 2.0, 1.3 * 3.0]), atol=1e-14)


def test_covariance_determinant_is_product_of_actions_squared():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        chain = random_chain(rng, n)
        actions = rng.uniform(0.5, 3.0, size=n)
        cov = classical_covariance(normal_modes(chain), actions)
        assert_allclose(np.linalg.det(cov.matrix), np.prod(actions) ** 2,
                        rtol=1e-9)


def test_scaling_linearity_power_of_two_exact():
    rng = np.random.default_rng(73)
    chain = random_chain(rng, 4)
    actions = rng.uniform(0.5, 2.0, size=4)
    base = classical_covariance(normal_modes(chain), actions)
    doubled = classical_covariance(normal_modes(chain), 2.0 * actions)
    assert_array_equal(doubled.matrix, 2.0 * base.matrix)


def test_scaling_linearity_generic_factor():
    rng = np.random.default_rng(79)
    chain = random_chain(rng, 4)
    actions = rng.uniform(0.5, 2.0, size=4)
    base = classical_covariance(normal_modes(chain), actions)
    scaled = classical_covariance(normal_modes(chain), 3.7 * actions)
    assert_allclose(scaled.matrix, 3.7 * base.matrix, rtol=1e-13,
                    atol=1e-14 * np.max(np.abs(base.matrix)))


def test_actions_validation():
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    with pytest.raises(ValueError):
        classical_covariance(modes, np.ones(3))
    with pytest.raises(ValueError):
        classical_covariance(modes, np.array([1.0, -1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            classical_covariance(modes, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite and positive"):
            angle_average_covariance(modes, np.array([bad, 1.0]))


# --- quantum ground state ----------------------------------------------------

def test_quantum_equals_classical_at_half_hbar():
    rng = np.random.default_rng(83)
    for hbar in (1.0, 2.0, 0.7):
        chain = random_chain(rng, 4)
        modes = normal_modes(chain)
        quantum = quantum_ground_covariance(modes, hbar)
        classical = classical_covariance(modes, np.full(4, hbar / 2.0))
        assert_array_equal(quantum.matrix, classical.matrix)
        assert quantum.action == classical.action == hbar / 2.0


def test_quantum_single_mode_width():
    # Ground-state position variance of a frequency-2 oscillator: hbar/4.
    cov = quantum_ground_covariance(normal_modes(TwoMode(A=4.0, B=9.0, C=0.0)),
                                    hbar=1.0)
    assert_allclose(cov.qq[0, 0], 0.25, atol=1e-15)
    assert_allclose(cov.pp[0, 0], 1.0, atol=1e-15)


def test_quantum_rejects_bad_hbar():
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    with pytest.raises(ValueError):
        quantum_ground_covariance(modes, 0.0)


# --- angle-average oracle ----------------------------------------------------

def test_angle_average_single_mode_is_exact():
    chain = GeneralizedChain(K=np.array([[4.0]]), Y=np.zeros(1))
    cov = angle_average_covariance(normal_modes(chain), np.ones(1), grid_points=64)
    assert_allclose(cov.qq[0, 0], 0.5, atol=1e-12)
    assert_allclose(cov.pp[0, 0], 2.0, atol=1e-12)


def test_angle_average_matches_analytic_two_mode():
    modes = normal_modes(TwoMode(A=5.0, B=20.0, C=10.0))
    actions = np.array([1.0, 2.0])
    brute = angle_average_covariance(modes, actions, grid_points=64)
    analytic = classical_covariance(modes, actions)
    assert_allclose(brute.matrix, analytic.matrix, atol=1e-10)


def test_angle_average_matches_analytic_with_momentum_coupling():
    rng = np.random.default_rng(89)
    chain = random_chain(rng, 3)
    actions = rng.uniform(0.5, 2.0, size=3)
    modes = normal_modes(chain)
    brute = angle_average_covariance(modes, actions, grid_points=32)
    analytic = classical_covariance(modes, actions)
    assert np.max(np.abs(analytic.qp)) > 1e-3  # the sign-sensitive block is live
    assert_allclose(brute.matrix, analytic.matrix, atol=1e-10)


def test_angle_average_guards():
    rng = np.random.default_rng(97)
    big = random_chain(rng, 5)
    with pytest.raises(DimensionTooLargeError):
        angle_average_covariance(normal_modes(big), np.ones(5))
    small = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    with pytest.raises(ValueError):
        angle_average_covariance(small, np.ones(2), grid_points=8)


# --- reduction ---------------------------------------------------------------

def test_reduce_full_set_is_identity():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    red = reduce_modes(cov, [0, 1])
    assert_array_equal(red.matrix, cov.matrix)
    assert red.action == cov.action


def test_reduce_single_oscillator_blocks():
    chain = GeneralizedChain(K=np.array([[3.0, -1.0], [-1.0, 4.0]]),
                             Y=np.array([0.4, -0.3]))
    cov = classical_covariance(normal_modes(chain), np.ones(2))
    red = reduce_modes(cov, [1])
    expect = np.array([[cov.qq[1, 1], cov.qp[1, 1]],
                       [cov.qp[1, 1], cov.pp[1, 1]]])
    assert_array_equal(red.matrix, expect)


def test_reduce_is_submatrix_on_lattice():
    cov = classical_covariance(normal_modes(CircularLattice(N=40, k=0.1, kappa=1.0)),
                               np.ones(40))
    keep = list(range(5, 25))
    red = reduce_modes(cov, keep)
    assert_array_equal(red.qq, cov.qq[np.ix_(keep, keep)])
    assert_array_equal(red.pp, cov.pp[np.ix_(keep, keep)])


def test_reduce_collapses_duplicates_and_sorts():
    cov = classical_covariance(normal_modes(CircularLattice(N=5, k=0.3, kappa=0.5)),
                               np.ones(5))
    assert_array_equal(reduce_modes(cov, [3, 1, 3]).matrix,
                       reduce_modes(cov, [1, 3]).matrix)


def test_reduce_errors():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    with pytest.raises(EmptySubsystemError):
        reduce_modes(cov, [])
    with pytest.raises(IndexOutOfRangeError):
        reduce_modes(cov, [2])
    with pytest.raises(IndexOutOfRangeError):
        reduce_modes(cov, [-1])


@pytest.mark.parametrize("n", [37, 40])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 64.0])
def test_ring_reduction_matches_dense_route(n, kappa):
    model = CircularLattice(N=n, k=0.1, kappa=kappa)
    dense = classical_covariance(normal_modes(model), np.ones(n))
    ring = ring_covariance(model)
    rng = np.random.default_rng(n)
    index_sets = (
        sorted(int(i) for i in rng.choice(n, size=9, replace=False)),
        [0, 2, 3, 7, 11, 30],
        [n - 3, n - 2, n - 1, 0, 1, 2],      # a window across the seam
    )
    for idx in index_sets:
        got, expect = reduce_modes(ring, idx), reduce_modes(dense, idx)
        tol = 1e-9 * float(np.max(np.abs(expect.matrix)))
        assert_allclose(got.qq, expect.qq, rtol=0.0, atol=tol)
        assert_allclose(got.pp, expect.pp, rtol=0.0, atol=tol)
        assert np.all(got.qp == 0.0)
        assert_array_equal(got.qq, got.qq.T)
        assert_array_equal(got.pp, got.pp.T)
        assert got.action == expect.action == 1.0


def test_ring_reduction_checks_indices_like_dense():
    ring = ring_covariance(CircularLattice(N=6, k=0.1, kappa=1.0))
    assert_array_equal(reduce_modes(ring, [4, 1, 4]).matrix,
                       reduce_modes(ring, [1, 4]).matrix)
    with pytest.raises(EmptySubsystemError):
        reduce_modes(ring, [])
    with pytest.raises(IndexOutOfRangeError):
        reduce_modes(ring, [6])
    with pytest.raises(IndexOutOfRangeError):
        reduce_modes(ring, [-1])


def test_ring_rows_must_be_finite():
    # A NaN row entry used to reach the kernel and read as E_N = 0.
    ring = ring_covariance(CircularLattice(N=10, k=0.1, kappa=1.0))
    bad = ring.cp.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        RingCovariance(ring.cq, bad)
    stack = ring_covariances([CircularLattice(N=10, k=0.1, kappa=kappa)
                              for kappa in (1.0, 4.0)])
    bad = stack.cq.copy()
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        RingCovariance(bad, stack.cp)


def test_ring_rows_must_share_a_one_or_two_dimensional_shape():
    # cq of 10 sites with cp of 6 used to end in a bare IndexError.
    ring = ring_covariance(CircularLattice(N=10, k=0.1, kappa=1.0))
    short = ring_covariance(CircularLattice(N=6, k=0.1, kappa=1.0))
    with pytest.raises(ValueError, match="same shape"):
        RingCovariance(ring.cq, short.cp)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        RingCovariance(ring.cq[np.newaxis, np.newaxis], ring.cp[np.newaxis, np.newaxis])
    with pytest.raises(ValueError, match="1-D or 2-D"):
        RingCovariance(np.float64(1.0), np.float64(1.0))


# --- partial transpose -------------------------------------------------------

def test_partial_transpose_sign_pattern():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    flipped = partial_transpose(cov, Bipartition((0,), (1,)))
    assert_array_equal(flipped.qq, cov.qq)
    expect_pp = cov.pp * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert_array_equal(flipped.pp, expect_pp)


def test_partial_transpose_empty_group2_is_identity():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    same = partial_transpose(cov, Bipartition((0, 1), ()))
    assert_array_equal(same.matrix, cov.matrix)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        chain = random_chain(rng, n, y_scale=0.0)
        cov = classical_covariance(normal_modes(chain), np.ones(n))
        cut = int(rng.integers(1, n))
        part = Bipartition(tuple(range(cut)), tuple(range(cut, n)))
        twice = partial_transpose(partial_transpose(cov, part), part)
        assert_array_equal(twice.matrix, cov.matrix)


def test_partial_transpose_accepts_any_cross_block():
    # P cov P is the Gaussian partial transpose of any covariance: a model's
    # shear cross block and a random positive-definite matrix alike.
    chain = GeneralizedChain(K=np.array([[3.0, -1.0], [-1.0, 4.0]]),
                             Y=np.array([0.4, -0.3]))
    rng = np.random.default_rng(331)
    a = rng.normal(size=(4, 4))
    part = Bipartition((0,), (1,))
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    for cov in (classical_covariance(normal_modes(chain), np.ones(2)),
                CovarianceMatrix(a @ a.T + np.eye(4))):
        assert np.max(np.abs(cov.qp)) > 0.01
        flipped = partial_transpose(cov, part)
        assert_array_equal(flipped.matrix, p @ cov.matrix @ p)
        assert_array_equal(partial_transpose(flipped, part).matrix, cov.matrix)


def test_partial_transpose_member_count_must_match():
    cov = classical_covariance(normal_modes(CircularLattice(N=5, k=0.3, kappa=0.5)),
                               np.ones(5))
    with pytest.raises(ValueError):
        partial_transpose(cov, Bipartition((0,), (1,)))
    with pytest.raises(EmptySubsystemError):
        partial_transpose(cov, Bipartition((), ()))


# --- value types -------------------------------------------------------------

def test_bipartition_overlap_and_signs():
    with pytest.raises(OverlappingGroupsError):
        Bipartition((0, 1), (1, 2))
    part = Bipartition((4, 0), (2,))
    assert part.members == (0, 2, 4)
    assert_array_equal(part.momentum_signs(), [1.0, -1.0, 1.0])


def test_covariance_matrix_validation():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CovarianceMatrix(np.zeros((2, 4)))


@pytest.mark.parametrize("action", [0.0, -1.0, float("nan"), float("inf")])
def test_covariance_matrix_refuses_a_non_positive_or_non_finite_action(action):
    # action = 0 gave purity 0 with divide-by-zero warnings; NaN gave NaN.
    with pytest.raises(ValueError, match="action"):
        CovarianceMatrix(np.eye(4), action=action)


def test_covariance_matrix_action_is_none_or_a_float():
    assert CovarianceMatrix(np.eye(4), action=None).action is None
    two = CovarianceMatrix(np.eye(4), action=2)
    assert type(two.action) is float and two.action == 2.0


def test_action_tag_semantics():
    # The tag is the per-mode action that the normalized measures divide
    # out: 1 by default, hbar/2 for the ground state, None when not uniform.
    assert CovarianceMatrix(np.eye(4)).action == 1.0
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    assert quantum_ground_covariance(modes, hbar=3.0).action == 1.5
    unknown = CovarianceMatrix(np.eye(4), None)
    for measure in (sigma_tilde, purity_from_determinant):
        with pytest.raises(ValueError, match="uniform-action"):
            measure(unknown)
    # Halving the matrix and its action leaves every normalized width alone.
    cov = quantum_ground_covariance(modes, hbar=1.0)
    half = CovarianceMatrix(0.5 * cov.matrix, 0.5 * cov.action)
    assert_allclose(sigma_tilde(half), sigma_tilde(cov), rtol=1e-13)

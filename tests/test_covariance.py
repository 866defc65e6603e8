"""Covariance assembly against closed forms and the brute-force angle average."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import sqrtm

from oscent.covariance import (
    Bipartition,
    CovarianceMatrix,
    RingCovariance,
    _mirror_windows,
    classical_covariance,
    partial_transpose,
    quantum_ground_covariance,
    reduce_modes,
    ring_windows,
)
from oscent.errors import (
    EmptySubsystemError,
    IndexOutOfRangeError,
    OverlappingGroupsError,
)
from oscent.linalg import POSDEF_RTOL, _spectrum_posdef
from oscent.measures import measure_report, purity_from_determinant, sigma_tilde
from oscent.models import (
    _ring_frequency_rows,
    CircularLattice,
    GeneralizedChain,
    TwoMode,
    m_matrix,
    normal_modes,
    two_mode_angles,
)

from chains import random_chain
from quadrature import DimensionTooLargeError, angle_average_covariance


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


@pytest.mark.parametrize("hbar", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_quantum_refuses_hbar_that_is_not_finite_and_positive(hbar):
    # NaN and inf used to pass the hbar check and be refused only as actions.
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    with pytest.raises(ValueError, match=f"^hbar must be finite and positive, got {hbar}$"):
        quantum_ground_covariance(modes, hbar)


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


@pytest.mark.parametrize("grid_points", [16.5, 16.0, float("nan"), "32"])
def test_angle_average_refuses_grid_points_that_are_not_integers(grid_points):
    # 16.5 and NaN used to end in range()'s bare TypeError.
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    with pytest.raises(ValueError, match="^grid_points must be an integer, got "):
        angle_average_covariance(modes, np.ones(2), grid_points=grid_points)


# --- reduction ---------------------------------------------------------------

def test_reduce_full_set_is_identity():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    assert reduce_modes(cov, [0, 1]) is cov


def state_flags(cov):
    return cov.action, cov._certified, cov._pure


def test_covering_indices_return_the_state_itself():
    rng = np.random.default_rng(2031)
    n = 6
    certified = classical_covariance(normal_modes(random_chain(rng, n)), np.ones(n))
    # Omegas from 9.9e-14 to 1.5: pure by construction, not certified.
    soft = classical_covariance(normal_modes(GeneralizedChain(
        K=np.array([[1e-26, 1e-14, 0.0, 0.0], [1e-14, 1.0, 0.3, 0.0],
                    [0.0, 0.3, 2.0, 0.4], [0.0, 0.0, 0.4, 1.5]]),
        Y=np.array([0.0, 0.2, -0.1, 0.15]))), np.ones(4))
    a = rng.normal(size=(2 * n, 2 * n))
    hand_built = CovarianceMatrix(a @ a.T + np.eye(2 * n), 0.5)
    assert state_flags(certified) == (1.0, True, True)
    assert state_flags(soft) == (1.0, False, True)
    assert state_flags(hand_built) == (0.5, False, False)
    for cov in (certified, soft, hand_built):
        before = state_flags(cov)
        m = cov.n_modes
        scrambled = rng.permutation(m).tolist()
        for indices in (range(m), scrambled, scrambled + scrambled[:2],
                        np.array(scrambled[::-1] + [0])):
            assert reduce_modes(cov, indices) is cov
        assert state_flags(cov) == before


def two_step_gather(matrix, indices):
    idx = np.array(sorted(set(indices)))
    sel = np.concatenate([idx, idx + matrix.shape[0] // 2])
    return np.asarray(matrix).take(sel, axis=0).take(sel, axis=1)


def test_reduction_gathers_the_bits_of_rows_then_columns():
    rng = np.random.default_rng(2032)
    n = 9
    built = classical_covariance(normal_modes(random_chain(rng, n)), np.ones(n))
    a = rng.normal(size=(2 * n, 2 * n))
    fortran = np.asfortranarray(a @ a.T + np.eye(2 * n))
    hand_built = CovarianceMatrix(fortran)
    assert hand_built.matrix.flags.c_contiguous
    for cov, source in ((built, built.matrix), (hand_built, fortran)):
        for _ in range(20):
            size = int(rng.integers(1, n))
            indices = rng.choice(n, size, replace=False).tolist()
            indices += rng.choice(indices, int(rng.integers(0, 3))).tolist()   # repeats
            rng.shuffle(indices)
            red = reduce_modes(cov, indices)
            assert red.matrix.tobytes() == two_step_gather(source, indices).tobytes()
            assert red._certified == cov._certified and not red._pure


def test_every_state_matrix_is_read_only():
    rng = np.random.default_rng(2033)
    n = 4
    built = classical_covariance(normal_modes(random_chain(rng, n)), np.ones(n))
    a = rng.normal(size=(2 * n, 2 * n))
    mine = a @ a.T + np.eye(2 * n)
    hand_built = CovarianceMatrix(mine)
    part = Bipartition((0, 2), (1,))
    states = [built, hand_built, reduce_modes(built, [2, 0, 1]),
              reduce_modes(hand_built, [1, 3]),
              partial_transpose(reduce_modes(built, part.members), part)]
    for cov in states:
        assert not cov.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cov.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cov.qq[0, 0] = 1.0
    # The caller's C-contiguous float array is shared and stays writable:
    # a hand-built state sees later changes made through it.
    assert mine.flags.writeable and np.shares_memory(mine, hand_built.matrix)
    mine[0, 0] = 7.0
    assert hand_built.matrix[0, 0] == 7.0
    # Anything else is converted once, and the input is left alone.
    for other in (np.asfortranarray(mine), np.eye(2 * n, dtype=int), np.eye(2 * n).tolist()):
        cov = CovarianceMatrix(other)
        assert not np.shares_memory(other, cov.matrix)
        assert cov.matrix.flags.c_contiguous and cov.matrix.dtype == np.float64
        assert not cov.matrix.flags.writeable
        if isinstance(other, np.ndarray):
            assert other.flags.writeable


def test_whole_state_report_makes_no_copy_of_the_matrix():
    n = 200
    cov = classical_covariance(normal_modes(CircularLattice(N=n, k=0.1, kappa=1.0)),
                               np.ones(n))
    reduce_modes(cov, [0])   # first calls outside the trace
    measure_report(cov)
    tracemalloc.start()
    try:
        report = measure_report(reduce_modes(cov, range(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.purity == 1.0
    # The state's matrix is (2n)**2 = 4 n**2 doubles; a copy of it traces
    # 32 n**2 bytes.
    assert peak < n * n * 8, peak


def test_only_whole_normal_mode_states_at_one_action_are_marked_pure():
    modes = normal_modes(TwoMode(A=5.0, B=20.0, C=10.0))
    cov = classical_covariance(modes, np.ones(2))
    assert cov._pure and quantum_ground_covariance(modes, hbar=0.7)._pure
    assert reduce_modes(cov, [1, 0, 1])._pure
    assert not reduce_modes(cov, [0])._pure
    assert not reduce_modes(reduce_modes(
        classical_covariance(normal_modes(CircularLattice(N=6, k=0.1, kappa=1.0)),
                             np.ones(6)), range(4)), range(4))._pure
    assert not classical_covariance(modes, np.array([1.0, 2.0]))._pure
    assert not angle_average_covariance(modes, np.ones(2), grid_points=16)._pure
    assert not partial_transpose(cov, Bipartition((0,), (1,)))._pure
    assert not CovarianceMatrix(cov.matrix, cov.action)._pure
    # Purity holds by construction, so an uncertified state is marked too:
    # this chain's omegas run from 9.9e-14 to 1.5.
    soft = GeneralizedChain(K=np.array([[1e-26, 1e-14, 0.0, 0.0], [1e-14, 1.0, 0.3, 0.0],
                                        [0.0, 0.3, 2.0, 0.4], [0.0, 0.0, 0.4, 1.5]]),
                            Y=np.array([0.0, 0.2, -0.1, 0.15]))
    soft_cov = classical_covariance(normal_modes(soft), np.ones(4))
    assert soft_cov._pure and not soft_cov._certified


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
    ring = RingCovariance([model])
    rng = np.random.default_rng(n)
    index_sets = (
        sorted(int(i) for i in rng.choice(n, size=9, replace=False)),
        [0, 2, 3, 7, 11, 30],
        [n - 3, n - 2, n - 1, 0, 1, 2],      # a window across the seam
    )
    for idx in index_sets:
        (qq,), (pp,) = ring_windows(ring, idx)
        expect = reduce_modes(dense, idx)
        tol = 1e-9 * float(np.max(np.abs(expect.matrix)))
        assert_allclose(qq, expect.qq, rtol=0.0, atol=tol)
        assert_allclose(pp, expect.pp, rtol=0.0, atol=tol)
        assert np.all(expect.qp == 0.0)
        assert_array_equal(qq, qq.T)
        assert_array_equal(pp, pp.T)
    assert ring.action == dense.action == 1.0


def test_ring_reduction_checks_indices_like_dense():
    model = CircularLattice(N=6, k=0.1, kappa=1.0)
    ring = RingCovariance([model])
    dense = classical_covariance(normal_modes(model), np.ones(6))
    for got, want in zip(ring_windows(ring, [4, 1, 4]), ring_windows(ring, [1, 4])):
        assert_array_equal(got, want)
    for indices, error in (([], EmptySubsystemError), ([6], IndexOutOfRangeError),
                           ([-1], IndexOutOfRangeError)):
        with pytest.raises(error) as refused:
            reduce_modes(dense, indices)
        with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
            ring_windows(ring, indices)


def test_model_built_ring_rows_are_even_finite_and_certified_quietly():
    # The invariant that stands in for checks of the rows: _circulant_row
    # averages row[d] with row[N - d], which IEEE addition makes exactly
    # even, and the models bound 0 < omega**2 <= k + 4 kappa < inf, so both
    # rows and the zero mode's c0 are finite, and the certificate, read from
    # the spectrum 1 / omega the qq rows are built from, raises no
    # floating-point error.
    rng = np.random.default_rng(2121)
    stacks = [[CircularLattice(3, 5e-324, 0.0), CircularLattice(3, 5e-324, 4e307)],
              [CircularLattice(2000, 5e-324, 4e307), CircularLattice(2000, 1e300, 0.0)],
              [CircularLattice(4, 1e300, 4e307), CircularLattice(4, 1.0, 5e-324)]]
    for _ in range(120):
        n = int(rng.integers(3, 600))
        stacks.append([CircularLattice(n, 10.0 ** rng.uniform(-323.0, 300.0),
                                       10.0 ** rng.uniform(-323.0, 307.6))
                       for _ in range(int(rng.integers(1, 4)))])
    for models in stacks:
        ring = RingCovariance(models)
        assert ring.cq.shape == ring.cp.shape == (len(models), models[0].N)
        for rows in (ring.cq, ring.cp):
            assert_array_equal(rows[:, 1:], rows[:, :0:-1])
            assert np.all(np.isfinite(rows))
        assert ring.c0.shape == (len(models),)
        assert np.all((ring.c0 > 0.0) & np.isfinite(ring.c0))
        omegas = _ring_frequency_rows(models)
        with np.errstate(all="raise"):
            assert ring._certified == _spectrum_posdef(1.0 / omegas)


def test_ring_rows_are_read_only():
    ring = RingCovariance([CircularLattice(N=8, k=0.1, kappa=1.0),
                           CircularLattice(N=8, k=0.1, kappa=4.0)])
    for rows in (ring.c0, ring.cq, ring.cp):
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 1.0


def test_zero_by_zero_covariance_is_refused():
    # It used to construct and end in numpy's "zero-size array to reduction
    # operation maximum" error downstream.
    with pytest.raises(EmptySubsystemError, match="0 x 0"):
        CovarianceMatrix(np.zeros((0, 0)))


# --- ring certificate --------------------------------------------------------

def test_ring_windows_lie_inside_the_circulant_spectrum():
    # The fact the kernel skip rests on: by Cauchy interlacing, the eigenvalues
    # of any window of a ring's qq lie inside the rfft spectrum of its full
    # row c0 + cq, up to the roundoff term 16 N eps * max that the
    # certificate's margin holds. Every such ring has min/max =
    # sqrt(k / (k + 4 kappa)) >= 5e-8 and is certified, so each window must
    # also pass the kernel's own test. The even and odd blocks of a mirror
    # window are its compressions to orthonormal vectors (e_i +/- e_(t-i)) /
    # sqrt(2), so by Poincare's separation theorem they lie inside it too.
    rng = np.random.default_rng(1414)
    eps = np.finfo(float).eps
    for _ in range(200):
        n = int(rng.integers(3, 401))
        k = 10.0 ** rng.uniform(-12.0, 1.0)
        kappa = 10.0 ** rng.uniform(-2.0, 2.0)
        ring = RingCovariance([CircularLattice(n, k, kappa)])
        w = np.fft.rfft(ring.cq[0] + ring.c0[0]).real
        sites = rng.choice(n, size=int(rng.integers(1, min(n, 40) + 1)), replace=False)
        (qq,), _ = ring_windows(ring, sites)
        tol = 16.0 * n * eps * w.max()
        # A mirror window about a random axis t: one site of each pair
        # {i, t - i} that the sites meet, none that the reflection fixes.
        t = int(rng.integers(0, n))
        group1 = sorted({min(i, (t - i) % n) for i in map(int, sites) if (2 * i - t) % n})
        blocks = [qq]
        if group1:
            blocks += [block[0] for block in _mirror_windows(ring, group1, t)[:2]]
        for block in blocks:
            got = np.linalg.eigvalsh(block)
            assert got[0] >= w.min() - tol
            assert got[-1] <= w.max() + tol
            assert got[0] > POSDEF_RTOL * got[-1]
        assert ring._certified


def test_normal_mode_reductions_lie_inside_the_mode_spectrum():
    # The fact the certificate of classical_covariance rests on: qq is
    # S diag(a / omega) S^T, so by Cauchy interlacing the qq block of every
    # reduction has its eigenvalues inside [min, max] of a / omega, up to
    # the roundoff term 16 n eps * max that the certificate's margin holds.
    rng = np.random.default_rng(1515)
    eps = np.finfo(float).eps
    for _ in range(150):
        n = int(rng.integers(2, 121))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = (q * 10.0 ** rng.uniform(-8.0, 1.0, size=n)) @ q.T   # omega from 1e-4
        y = rng.uniform(-0.5, 0.5, size=n)
        k = 0.5 * (m + m.T) + np.diag(y**2)
        modes = normal_modes(GeneralizedChain(K=k, Y=y))
        actions = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        spectrum = actions / modes.omegas
        cov = classical_covariance(modes, actions)
        assert cov._certified == _spectrum_posdef(spectrum)
        sites = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        red = reduce_modes(cov, sites)
        assert red._certified == cov._certified
        got = np.linalg.eigvalsh(red.qq)
        tol = 16.0 * n * eps * spectrum.max()
        assert got[0] >= spectrum.min() - tol
        assert got[-1] <= spectrum.max() + tol
        if cov._certified:
            assert got[0] > POSDEF_RTOL * got[-1]


def test_ring_certificate_reads_the_rows():
    stack = RingCovariance([CircularLattice(N=12, k=0.1, kappa=kappa)
                            for kappa in (1.0, 64.0)])
    assert stack._certified
    assert RingCovariance([CircularLattice(N=12, k=0.1, kappa=64.0)])._certified
    # At k = 1e-22 the ring's qq eigenvalue ratio sqrt(k / (k + 4 kappa)) is
    # about 6e-13, below the margin: one such state uncertifies the stack.
    low = CircularLattice(N=12, k=1e-22, kappa=64.0)
    assert not RingCovariance([low])._certified
    assert not RingCovariance([CircularLattice(N=12, k=0.1, kappa=1.0), low])._certified


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


def test_partial_transpose_keeps_the_bits_of_the_outer_product():
    # Products with +/-1 are exact in any order, signed zeros included.
    rng = np.random.default_rng(2034)
    a = rng.normal(size=(6, 6))
    m = a @ a.T + np.eye(6)
    for (i, j), zero in zip([(0, 4), (3, 4), (4, 5), (1, 5)], [0.0, -0.0, -0.0, 0.0]):
        m[i, j] = m[j, i] = zero
    cov = CovarianceMatrix(m)
    for part in (Bipartition((0,), (1, 2)), Bipartition((1,), (0, 2)),
                 Bipartition((0, 1, 2), ()), Bipartition((), (0, 1, 2))):
        signs = np.concatenate([np.ones(3), part.momentum_signs()])
        want = m * np.outer(signs, signs)
        assert partial_transpose(cov, part).matrix.tobytes() == want.tobytes()


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
    # Each call builds a fresh array, so a caller's edits do not reach the next.
    part.momentum_signs()[:] = 0.0
    assert_array_equal(part.momentum_signs(), [1.0, -1.0, 1.0])


@pytest.mark.parametrize("bad, shown", [(0.7, "0.7"), (np.float64(1.5), "1.5"),
                                        (float("nan"), "nan"), (float("inf"), "inf"),
                                        (-float("inf"), "-inf")])
def test_non_integral_indices_are_refused_not_truncated(bad, shown):
    # reduce_modes(cov, [0.7]) reduced to mode 0 and Bipartition([0.5], [1.9])
    # became (0,) | (1,); NaN ended in "cannot convert float NaN to integer".
    model = CircularLattice(N=6, k=0.1, kappa=1.0)
    dense = classical_covariance(normal_modes(model), np.ones(6))
    message = f"^oscillator index {re.escape(shown)} is not an integer$"
    for call in (lambda: reduce_modes(dense, [1, bad]),
                 lambda: ring_windows(RingCovariance([model]), [bad]),
                 lambda: Bipartition([bad], [3]),
                 lambda: Bipartition([0], [bad, 2])):
        with pytest.raises(IndexOutOfRangeError, match=message):
            call()


def test_integral_floats_and_numpy_integers_are_indices():
    dense = classical_covariance(normal_modes(CircularLattice(N=6, k=0.1, kappa=1.0)),
                                 np.ones(6))
    want = reduce_modes(dense, [1, 4]).matrix
    for indices in ([1.0, 4.0], [np.int64(1), np.int32(4)], [np.float64(4.0), 1], [True, 4]):
        assert reduce_modes(dense, indices).matrix.tobytes() == want.tobytes()
    part = Bipartition([np.int64(4), 0.0], (np.uint8(2), 2.0))
    assert part.group1 == (0, 4) and part.group2 == (2,)
    assert all(type(i) is int for i in part.members)


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

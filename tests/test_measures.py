"""Purity and entropy measures, their limits, and the two-oscillator closed forms."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscent.measures as measures
from oscent.covariance import (
    CovarianceMatrix,
    classical_covariance,
    quantum_ground_covariance,
    reduce_modes,
)
from oscent.errors import (
    AlphaOutOfDomainError,
    DegenerateParametersError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SubHeisenbergError,
)
from oscent.linalg import symplectic_spectrum
from oscent.measures import (
    DEFAULT_ALPHAS,
    alpha_family,
    g_alpha,
    measure_report,
    one_mode_purity_closed_form,
    one_mode_sigma_closed_form,
    purity_from_determinant,
    sigma_tilde,
    two_mode_reduced_purity,
    von_neumann_entropy,
)
from oscent.models import (
    CircularLattice,
    TwoMode,
    TwoModeGeneralized,
    normal_modes,
    two_mode_angles,
)

from chains import random_chain, random_qp_chain
from quadrature import angle_average_covariance

# One-oscillator reduction of the A=5, B=20, C=10 pair at unit actions,
# frozen from the covariance pipeline and confirmed by two closed forms.
SIGMA_REF = 0.5167716231557249
PURITY_REF = 0.967545386773935
ENTROPY_REF = 0.08547500487489379

EPS = np.finfo(float).eps


def reference_reduction():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    return reduce_modes(cov, [0])


# --- sigma_tilde --------------------------------------------------------------

def test_whole_system_sits_on_the_pure_floor():
    # The numerical route on the whole matrix: every symplectic width of a
    # state at common action c is c, so nu / (2 c) sits at 1/2 up to
    # roundoff. sigma_tilde reads the whole state's exact 1/2 with no solve.
    rng = np.random.default_rng(103)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 3.0))
        cov = classical_covariance(normal_modes(random_chain(rng, n)), np.full(n, c))
        assert_allclose(symplectic_spectrum(cov.matrix) / (2.0 * c), np.full(n, 0.5),
                        atol=1e-12)
        assert np.array_equal(sigma_tilde(cov), np.full(n, 0.5))


def test_reduced_sigma_reference_value():
    assert_allclose(sigma_tilde(reference_reduction())[0], SIGMA_REF, rtol=1e-12)


def test_sigma_same_for_both_one_mode_reductions():
    # Reductions of a pure pair share their spectrum.
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    s0 = sigma_tilde(reduce_modes(cov, [0]))
    s1 = sigma_tilde(reduce_modes(cov, [1]))
    assert_allclose(s0, s1, rtol=1e-12)


def test_sigma_quantum_route_matches():
    cov = quantum_ground_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                                    hbar=0.7)
    assert_allclose(sigma_tilde(reduce_modes(cov, [0]))[0], SIGMA_REF, rtol=1e-12)


def test_sigma_needs_uniform_actions():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sigma_tilde(cov)


def test_sigma_below_floor_raises():
    shrunk = CovarianceMatrix(0.9 * np.eye(4) * 0.5, action=0.5)
    with pytest.raises(SubHeisenbergError):
        sigma_tilde(shrunk)


# --- g_alpha ------------------------------------------------------------------

def test_g_alpha_pure_mode_is_one_for_every_order():
    for alpha in (0.5, 0.9, 2.0, 7.0, 64.0):
        assert_allclose(g_alpha(0.5, alpha), 1.0, atol=1e-15)


def test_g_alpha_order_two_is_inverse_width():
    sigma = np.array([0.5, 1.0, 2.5])
    assert_allclose(g_alpha(sigma, 2.0), 1.0 / (2.0 * sigma), rtol=1e-15)


def test_g_alpha_hand_value():
    # sigma = 3/2, alpha = 3: 1/(2^3 - 1^3) = 1/7.
    assert_allclose(g_alpha(1.5, 3.0), 1.0 / 7.0, rtol=1e-15)


def test_g_alpha_domain():
    for alpha in (1.0, 0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(AlphaOutOfDomainError):
            g_alpha(1.0, alpha)


def test_alpha_family_rejects_infinite_order():
    with pytest.raises(AlphaOutOfDomainError):
        alpha_family(np.array([0.5, 0.7]), [2.0, float("inf")])


@pytest.mark.parametrize("sigma, alpha", [
    ([0.6, 0.7], 5000.0),        # (sigma + 1/2)**alpha overflows: Renyi is inf
    ([0.6, 0.7], 1e-320),        # the difference in g rounds to 0: all three inf
    ([50.0] * 100, 0.01),        # every g is finite, their product overflows
])
def test_alpha_family_refuses_an_order_outside_the_double_range(sigma, alpha):
    # These used to come back as inf (and, in the CLI, print with exit 0).
    # numpy's warnings are errors in this suite, so none may escape either.
    with pytest.raises(AlphaOutOfDomainError, match=f"^order {alpha:g} leaves the double"):
        alpha_family(np.array(sigma), [2.0, alpha])
    assert np.isnan(alpha_family(np.array(sigma), [1.0])[1.0].purity)


@pytest.mark.parametrize("alphas, order", [((2.0, 2.0), "2"), ((0.9, 1, 2, 1.0), "1"),
                                           ((4, 8.0, 4.0), "4")])
def test_alpha_family_refuses_a_repeated_order(alphas, order):
    # A repeat used to collapse silently into one entry of the family.
    with pytest.raises(ValueError, match=f"^alphas repeat the order {order}$"):
        alpha_family(np.array([0.5, 0.7]), alphas)


def per_order_family(sigma, alphas):
    """(mu, tsallis, renyi) per order by the formula alpha_family used before
    it became one array expression: one g_alpha per order, refused in the
    order given."""
    out = {}
    for alpha in alphas:
        alpha = float(alpha)
        if alpha in out:
            raise ValueError(f"alphas repeat the order {alpha:g}")
        if alpha == 1.0:
            s = von_neumann_entropy(sigma)
            out[alpha] = (float("nan"), s, s)
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = g_alpha(sigma, alpha)
            mu = float(np.prod(g))
            tsallis = (1.0 - mu) / (alpha - 1.0) + 0.0
            renyi = float(np.sum(np.log(g))) / (1.0 - alpha) + 0.0
        if not (np.isfinite(mu) and np.isfinite(tsallis) and np.isfinite(renyi)):
            raise AlphaOutOfDomainError(f"order {alpha:g} leaves the double range")
        out[alpha] = (mu, tsallis, renyi)
    return out


def test_alpha_family_keeps_the_bits_of_the_per_order_formula():
    # numpy takes x ** 2.0 and x ** 0.5 as square and sqrt, whose bits can
    # differ from pow's; a plain broadcast power moved the alpha = 2 cells.
    rng = np.random.default_rng(3504)
    alphas = DEFAULT_ALPHAS + (0.5, 3000.0)
    for trial in range(200):
        m = int(rng.integers(1, 160))
        sigma = 0.5 + rng.exponential(size=m) * rng.choice([1e-9, 1e-2, 1.0, 30.0])
        if trial % 4 == 0:
            sigma[rng.random(m) < 0.5] = 0.5
        order = list(rng.permutation(alphas)) if trial % 2 else list(alphas)
        try:
            want = per_order_family(sigma, order)
        except AlphaOutOfDomainError:   # order 3000 on wide modes
            order.remove(3000.0)
            want = per_order_family(sigma, order)
        got = alpha_family(sigma, order)
        assert list(got) == list(want)
        for alpha, (mu, tsallis, renyi) in want.items():
            fam = got[alpha]
            assert np.array([fam.purity, fam.tsallis, fam.renyi]).tobytes() == \
                np.array([mu, tsallis, renyi]).tobytes(), alpha


@pytest.mark.parametrize("alphas", [
    (2.0, 5000.0, 2.0),             # the overflow comes first
    (2.0, 2.0, 5000.0),             # the repeat comes first
    (4.0, float("inf"), 5000.0),    # the domain comes first
    (5000.0, 0.0),
    (1.0, -1.0, 1.0),
    (0.9, 1.0, 1.0, float("nan")),
    (3.0, 1e-320, float("inf")),
])
def test_alpha_family_refuses_orders_in_the_order_given(alphas):
    sigma = np.array([0.6, 0.7, 2.5])
    with pytest.raises((ValueError, AlphaOutOfDomainError)) as want:
        per_order_family(sigma, alphas)
    with pytest.raises(type(want.value)) as got:
        alpha_family(sigma, alphas)
    assert str(got.value).startswith(str(want.value))


@pytest.mark.parametrize("sigma", [[0.3], [0.9, 0.5 - 2e-9], [np.nan], [0.7, np.nan]])
@pytest.mark.parametrize("alphas", [DEFAULT_ALPHAS, (2.0,), (1.0,), ()])
def test_alpha_family_refuses_nan_and_sub_heisenberg_widths(sigma, alphas):
    # [0.3] used to give mu_2 = 1.5625 and Tsallis -0.5625, and [nan] an
    # AlphaOutOfDomainError saying the order leaves the double range.
    with pytest.raises(SubHeisenbergError, match="^entropy undefined below sigma = 1/2$"):
        alpha_family(np.array(sigma), alphas)


def test_alpha_family_clamps_widths_within_the_floor_tolerance():
    near = alpha_family(np.array([0.5 - 0.5e-9, 0.8]))
    exact = alpha_family(np.array([0.5, 0.8]))
    for alpha, fam in exact.items():
        assert np.array([near[alpha].purity, near[alpha].tsallis, near[alpha].renyi]).tobytes() \
            == np.array([fam.purity, fam.tsallis, fam.renyi]).tobytes()


# --- entropy ------------------------------------------------------------------

def test_entropy_zero_on_pure_floor():
    assert von_neumann_entropy(0.5) == 0.0
    assert von_neumann_entropy(np.full(4, 0.5)) == 0.0


def test_entropy_hand_value():
    # sigma = 3/2: 2 ln 2 - 1 ln 1 = 2 ln 2.
    assert_allclose(von_neumann_entropy(1.5), 2.0 * np.log(2.0), rtol=1e-15)


def test_entropy_adds_over_modes():
    parts = [von_neumann_entropy(s) for s in (0.8, 1.5, 2.2)]
    total = von_neumann_entropy(np.array([0.8, 1.5, 2.2]))
    assert_allclose(total, sum(parts), rtol=1e-14)


def test_entropy_reference_value():
    sigma = sigma_tilde(reference_reduction())
    assert_allclose(von_neumann_entropy(sigma), ENTROPY_REF, rtol=1e-12)


def test_entropy_refuses_a_nan_width():
    # It used to return nan.
    for sigma in (np.nan, [0.8, np.nan]):
        with pytest.raises(SubHeisenbergError, match="^entropy undefined below sigma = 1/2$"):
            von_neumann_entropy(sigma)


def test_entropy_below_floor_raises():
    with pytest.raises(SubHeisenbergError):
        von_neumann_entropy(0.4)


# --- determinant purity ---------------------------------------------------------

def test_whole_system_purity_is_one():
    rng = np.random.default_rng(107)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        c = float(rng.uniform(0.5, 3.0))
        cov = classical_covariance(normal_modes(random_chain(rng, n)), np.full(n, c))
        assert_allclose(purity_from_determinant(cov), 1.0, atol=1e-10)


def test_reduced_purity_reference_value():
    assert_allclose(purity_from_determinant(reference_reduction()), PURITY_REF,
                    rtol=1e-12)


def test_purity_refuses_a_determinant_that_is_not_positive():
    with pytest.raises(SingularMatrixError, match="determinant is not positive"):
        purity_from_determinant(CovarianceMatrix(np.diag([1.0, -1.0])))


def test_purity_refuses_an_indefinite_matrix_with_a_positive_determinant():
    # det = 1 and qq = -I has sign +1, so neither the sign test nor the
    # block route saw it: this used to return purity 1.0.
    with pytest.raises(NotPositiveDefiniteError, match="^covariance has no Cholesky factor"):
        purity_from_determinant(CovarianceMatrix(np.diag([-1.0, -1.0, 1.0, 1.0])))


def test_purity_tests_only_uncertified_matrices_for_positive_definiteness(monkeypatch):
    # The test is one Cholesky factor of the whole matrix. A certified state
    # is trusted, as by symplectic_spectrum; inside measure_report the
    # spectrum's own tests cover it, so the only factor there is the
    # kernel's of qq.
    shapes, cholesky = [], np.linalg.cholesky

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    chain = random_chain(np.random.default_rng(3501), 6)
    red = reduce_modes(classical_covariance(normal_modes(chain), np.ones(6)), [0, 2, 5])
    twin = CovarianceMatrix(red.matrix)
    assert red._certified and not twin._certified
    purity_from_determinant(red)
    assert shapes == []
    purity_from_determinant(twin)
    assert shapes == [(6, 6)]
    shapes.clear()
    measure_report(twin)
    assert shapes == [(3, 3)]


def log_det_error(x):
    # slogdet's LU factor is exact for x + E with ||E|| about d eps ||x||
    # (Higham, ch. 9; no growth on a positive-definite matrix), d the
    # dimension, and ln det moves by tr(x^-1 E) <= d ||E|| / w_min to first
    # order.
    w = np.linalg.eigvalsh(x)
    return w.size * (w.size * EPS * w[-1]) / w[0]


def block_purity_bound(red):
    # Bound on |purity_from_determinant - the whole-matrix slogdet oracle| /
    # purity. purity = c**m / sqrt(det), so each ln det error counts half:
    # the whole LU, the LUs of qq and of the unsheared pp' = pp - Y qq Y,
    # and the unshear itself, whose entries round within eps (|pp| +
    # |Y qq Y|), so ||E|| <= m eps (max|pp| + max|Y qq Y|) and ln det pp'
    # moves by m ||E|| / w_min(pp').
    m = red.n_modes
    y = -np.diag(red.qp) / np.diag(red.qq)
    yqqy = (y[:, np.newaxis] * red.qq) * y
    unsheared = red.pp - yqqy
    w_min = np.linalg.eigvalsh(unsheared)[0]
    unshear = m * m * EPS * (np.max(np.abs(red.pp)) + np.max(np.abs(yqqy))) / w_min
    return 0.5 * (log_det_error(red.matrix) + log_det_error(red.qq)
                  + log_det_error(unsheared) + unshear)


def slogdet_purity(cov):
    sign, logdet = np.linalg.slogdet(cov.matrix)
    assert sign > 0.0
    return float(np.exp(cov.n_modes * np.log(cov.action) - 0.5 * logdet))


def block_route_cases():
    rng = np.random.default_rng(3502)
    for n, chain in ((14, random_chain(rng, 14, y_scale=0.5)), (40, random_qp_chain(rng, 40)),
                     (9, random_chain(rng, 9, y_scale=0.0))):
        cov = classical_covariance(normal_modes(chain), np.ones(n))
        for size in (1, 3, n // 2, n - 1):
            yield reduce_modes(cov, rng.choice(n, size, replace=False))
    for model in (TwoModeGeneralized(X1=2.0, X2=3.0, Y1=0.5, Y2=1.2, Z=1.0),
                  TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.2, Z=1.0)):
        cov = classical_covariance(normal_modes(model), np.array([1.0, 1.0]))
        yield from (reduce_modes(cov, [0]), reduce_modes(cov, [1]))
    for n, k, kappa in ((16, 0.1, 4.0), (64, 1e-3, 1.0), (200, 1e-6, 64.0)):
        cov = classical_covariance(normal_modes(CircularLattice(N=n, k=k, kappa=kappa)),
                                   np.ones(n))
        for window in (range(n // 4), range(n // 2), [0, 1, 2] + list(range(n // 2, n // 2 + 5))):
            yield reduce_modes(cov, window)


def test_block_purity_matches_the_whole_matrix_slogdet(monkeypatch):
    # A shear has determinant 1, so det cov = det qq det pp'; the purity
    # takes the two m x m LUs, the oracle the LU of the whole 2m x 2m matrix.
    shapes, slogdet = [], np.linalg.slogdet

    def spy(a):
        shapes.append(np.shape(a))
        return slogdet(a)

    widest = 0.0
    for red in block_route_cases():
        want = slogdet_purity(red)
        bound = block_purity_bound(red)
        m = red.n_modes
        for cov in (red, CovarianceMatrix(red.matrix)):
            monkeypatch.setattr(np.linalg, "slogdet", spy)
            got = purity_from_determinant(cov)
            monkeypatch.setattr(np.linalg, "slogdet", slogdet)
            assert shapes == [(m, m), (m, m)]
            shapes.clear()
            assert abs(got - want) <= bound * want
            widest = max(widest, abs(got - want) / want)
    assert 0.0 < widest


def test_purity_of_a_non_shear_cross_block_takes_the_whole_matrix(monkeypatch):
    # A local rotation q_j, p_j -> cos q_j + sin p_j, -sin q_j + cos p_j is
    # symplectic with determinant 1 but mixes q and p into a cross block no
    # local shear makes, so the purity is the oracle's own LU of the whole
    # matrix, bit for bit. It is also the unrotated state's purity, within
    # the two LUs' bounds and the rotation's rounding: R a R^T is within
    # ||E|| <= 2 d eps ||a|| of exact (two products of d terms, R
    # orthogonal), which moves ln det by 2 d**2 eps ||a|| / w_min.
    rng = np.random.default_rng(3503)
    n = 5
    cov = classical_covariance(normal_modes(random_chain(rng, n)), np.ones(n))
    red = reduce_modes(cov, [0, 1, 3])
    m = red.n_modes
    theta = rng.uniform(0.2, 1.2, size=m)
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    rotation = np.block([[c, s], [-s, c]])
    moved = rotation @ red.matrix @ rotation.T
    moved = CovarianceMatrix(0.5 * (moved + moved.T))
    shapes, slogdet = [], np.linalg.slogdet

    def spy(a):
        shapes.append(np.shape(a))
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", spy)
    got = purity_from_determinant(moved)
    monkeypatch.setattr(np.linalg, "slogdet", slogdet)
    assert shapes == [(2 * m, 2 * m)]
    assert got == slogdet_purity(moved)
    bound = 0.5 * (log_det_error(moved.matrix) + 3.0 * log_det_error(red.matrix))
    assert abs(got - slogdet_purity(red)) <= bound * got


def test_purity_equals_product_of_inverse_widths():
    rng = np.random.default_rng(109)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        chain = random_chain(rng, n, y_scale=0.0)
        cov = classical_covariance(normal_modes(chain), np.ones(n))
        red = reduce_modes(cov, list(range(n - 1)))
        sigma = sigma_tilde(red)
        assert_allclose(purity_from_determinant(red), np.prod(1.0 / (2.0 * sigma)),
                        rtol=1e-9)


# --- alpha family ----------------------------------------------------------------

def test_alpha_two_reproduces_determinant_purity():
    red = reference_reduction()
    fam = alpha_family(sigma_tilde(red), alphas=(2.0,))[2.0]
    assert_allclose(fam.purity, purity_from_determinant(red), rtol=1e-9)


def test_alpha_one_dispatches_to_entropy():
    sigma = np.array([0.9, 1.4])
    fam = alpha_family(sigma, alphas=(1.0,))[1.0]
    s = von_neumann_entropy(sigma)
    assert np.isnan(fam.purity)
    assert fam.tsallis == s and fam.renyi == s


def test_alpha_limit_is_continuous():
    # Deviation grows like |alpha - 1| times entropy squared, so keep the
    # spectra modest for a fixed 1e-5 window.
    rng = np.random.default_rng(113)
    for _ in range(100):
        sigma = rng.uniform(0.5, 2.0, size=int(rng.integers(1, 3)))
        s = von_neumann_entropy(sigma)
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            fam = alpha_family(sigma, alphas=(alpha,))[alpha]
            assert abs(fam.tsallis - s) < 1e-5
            assert abs(fam.renyi - s) < 1e-5


def test_entropies_nonincreasing_in_alpha():
    rng = np.random.default_rng(127)
    alphas = (0.9, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    for _ in range(100):
        sigma = rng.uniform(0.5 + 1e-6, 4.0, size=int(rng.integers(1, 5)))
        fams = alpha_family(sigma, alphas)
        tsallis = [fams[a].tsallis for a in alphas]
        renyi = [fams[a].renyi for a in alphas]
        assert np.all(np.diff(tsallis) <= 1e-12)
        assert np.all(np.diff(renyi) <= 1e-12)


def test_pure_spectrum_gives_unit_purity_zero_entropy():
    fams = alpha_family(np.full(3, 0.5), DEFAULT_ALPHAS)
    for alpha, fam in fams.items():
        if alpha != 1.0:
            assert_allclose(fam.purity, 1.0, atol=1e-14)
        assert_allclose(fam.tsallis, 0.0, atol=1e-14)
        assert_allclose(fam.renyi, 0.0, atol=1e-14)


def test_log_sum_survives_product_underflow():
    sigma = np.full(50, 60.0)
    fam = alpha_family(sigma, alphas=(64.0,))[64.0]
    assert fam.purity == 0.0  # the plain product underflows
    assert np.isfinite(fam.renyi) and fam.renyi > 0.0
    assert_allclose(fam.tsallis, 1.0 / 63.0, rtol=1e-12)


def test_default_alpha_grid():
    assert DEFAULT_ALPHAS == (0.9, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


# --- reports ---------------------------------------------------------------------

def test_measure_report_is_consistent():
    report = measure_report(reference_reduction(), alphas=(2.0, 4.0), label="x")
    assert report.label == "x"
    assert_allclose(report.linear_entropy, 1.0 - report.purity, rtol=1e-15)
    assert_allclose(report.von_neumann, ENTROPY_REF, rtol=1e-12)
    assert set(report.families) == {2.0, 4.0}


# --- the normal-mode certificate ---------------------------------------------------

def test_certified_report_runs_one_eigensolve(eigvalsh_shapes):
    # A state built from normal modes, and every reduction of it, carries the
    # certificate, so its report solves only the product. The same entries
    # handed in as a bare CovarianceMatrix run the eigenvalue test first.
    rng = np.random.default_rng(1516)
    modes = normal_modes(random_chain(rng, 8))
    cov = classical_covariance(modes, np.ones(8))
    assert cov._certified and quantum_ground_covariance(modes, hbar=0.3)._certified
    red = reduce_modes(cov, [0, 2, 3, 6])
    assert red._certified
    certified = measure_report(red)
    assert eigvalsh_shapes == [(4, 4)]
    eigvalsh_shapes.clear()
    tested = measure_report(CovarianceMatrix(red.matrix))
    assert eigvalsh_shapes == [(4, 4)] * 2
    assert certified.sigma.tobytes() == tested.sigma.tobytes()
    assert certified.purity == tested.purity


def dump_tool_chain():
    """The seeded 12-site q-p chain of tools/dump_outputs.py."""
    path = Path(__file__).resolve().parents[1] / "tools" / "dump_outputs.py"
    spec = importlib.util.spec_from_file_location("dump_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.qp_chain()


def test_whole_normal_mode_states_read_exact_values_without_a_solve(monkeypatch):
    # A whole state built at one common action is pure by construction: its
    # widths are exactly 1/2, its purity exactly 1 and every entropy exactly
    # 0. The solves used to return them to roundoff only; on the 400-site
    # ring S read 1.1e-11 and Tsallis(0.9) 9.3e-11.
    chain = normal_modes(dump_tool_chain())
    states = [classical_covariance(normal_modes(TwoMode(5.0, 20.0, 10.0)), np.ones(2)),
              classical_covariance(chain, np.ones(12)),
              classical_covariance(normal_modes(CircularLattice(400, 1e-4, 1.0)),
                                   np.ones(400)),
              quantum_ground_covariance(chain, hbar=0.7)]
    assert chain.ydiag.any() and states[-1].action == 0.35

    def no_solve(*args, **kwargs):
        raise AssertionError("a pure whole state needs no solve")

    monkeypatch.setattr(measures, "symplectic_spectrum", no_solve)
    monkeypatch.setattr(np.linalg, "slogdet", no_solve)
    for cov in states:
        n = cov.n_modes
        for whole in (cov, reduce_modes(cov, range(n - 1, -1, -1))):
            assert whole._pure
            assert np.array_equal(sigma_tilde(whole), np.full(n, 0.5))
            report = measure_report(whole)
            assert np.array_equal(report.sigma, np.full(n, 0.5))
            assert (report.purity, report.linear_entropy, report.von_neumann) == (1.0, 0.0, 0.0)
            assert sorted(report.families) == sorted(DEFAULT_ALPHAS)
            for alpha, fam in report.families.items():
                assert (fam.tsallis, fam.renyi) == (0.0, 0.0), alpha
                assert fam.purity == 1.0 or (alpha == 1.0 and np.isnan(fam.purity))


def test_uncertified_states_keep_the_eigenvalue_test(eigvalsh_shapes):
    modes = normal_modes(TwoMode(A=5.0, B=20.0, C=10.0))
    averaged = angle_average_covariance(modes, np.ones(2), grid_points=16)
    assert not averaged._certified
    sigma_tilde(averaged)
    assert eigvalsh_shapes == [(2, 2)] * 2
    # A hand-built indefinite qq is refused by the test.
    qq = np.array([[1.0, 2.0], [2.0, 1.0]])
    indefinite = CovarianceMatrix(np.block([[qq, np.zeros((2, 2))],
                                            [np.zeros((2, 2)), np.eye(2)]]))
    with pytest.raises(NotPositiveDefiniteError, match="qq block is not positive definite"):
        sigma_tilde(indefinite)
    # Actions spread below the kernel's floor leave the state uncertified,
    # and the test refuses it.
    spread = classical_covariance(modes, np.array([1.0, 1e-13]))
    assert not spread._certified
    with pytest.raises(NotPositiveDefiniteError, match="qq block is not positive definite"):
        symplectic_spectrum(spread.matrix, _certified=spread._certified)


# --- closed forms -----------------------------------------------------------------

def test_one_mode_sigma_closed_form_matches_pipeline():
    for c in (0.0, 5.0, 10.0, 15.0, 19.9):
        cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=c)),
                                   np.ones(2))
        sigma = sigma_tilde(reduce_modes(cov, [0]))[0]
        assert_allclose(one_mode_sigma_closed_form(5.0, 20.0, c), sigma, rtol=1e-12)


def test_one_mode_sigma_closed_form_edge_values():
    assert one_mode_sigma_closed_form(5.0, 20.0, 0.0) == 0.5
    assert_allclose(one_mode_sigma_closed_form(5.0, 20.0, 10.0), SIGMA_REF,
                    rtol=1e-12)
    with pytest.raises(DegenerateParametersError):
        one_mode_sigma_closed_form(1.0, 1.0, 2.0)


def test_sigma_closed_form_agrees_with_angle_product():
    # Independent expression through the mixing angle and frequencies.
    for c in (3.0, 10.0, 17.0):
        ang = two_mode_angles(TwoMode(A=5.0, B=20.0, C=c))
        cos2, sin2 = np.cos(ang.angle) ** 2, np.sin(ang.angle) ** 2
        product = 0.5 * np.sqrt((cos2 / ang.omega1 + sin2 / ang.omega2)
                                * (ang.omega1 * cos2 + ang.omega2 * sin2))
        assert_allclose(one_mode_sigma_closed_form(5.0, 20.0, c), product,
                        rtol=1e-12)


def test_purity_closed_form_trivial_cases():
    assert one_mode_purity_closed_form(2.0, 2.0, 0.7) == 1.0
    assert one_mode_purity_closed_form(1.0, 5.0, 0.0) == 1.0


def test_two_mode_reduced_purity_matches_determinant():
    models = [
        TwoMode(A=5.0, B=20.0, C=10.0),
        TwoMode(A=2.0, B=3.0, C=1.5),
        TwoModeGeneralized(X1=1.0, X2=2.0, Y1=0.0, Y2=0.0, Z=1.0),
    ]
    for model in models:
        cov = classical_covariance(normal_modes(model), np.ones(2))
        det_route = purity_from_determinant(reduce_modes(cov, [0]))
        assert_allclose(two_mode_reduced_purity(model), det_route, rtol=1e-9)


def test_two_mode_reduced_purity_reference_value():
    assert_allclose(two_mode_reduced_purity(TwoMode(A=5.0, B=20.0, C=10.0)),
                    PURITY_REF, rtol=1e-12)


def test_two_mode_reduced_purity_rejects_other_models():
    with pytest.raises(DegenerateParametersError):
        two_mode_reduced_purity(CircularLattice(N=4, k=0.1, kappa=1.0))

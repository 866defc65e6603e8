"""Model assembly, stability, normal modes and model-file round trips."""

import dataclasses
import json
import os
import re
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oscent import covariance, linalg, models
from oscent.errors import (
    DegenerateParametersError,
    InvalidModelError,
    UnstableSystemError,
)
from oscent.models import (
    _ring_frequency_rows,
    CircularLattice,
    GeneralizedChain,
    TwoMode,
    TwoModeGeneralized,
    assemble_ky,
    load_model,
    m_matrix,
    model_from_dict,
    model_to_dict,
    normal_modes,
    save_model,
    stability,
    two_mode_angles,
)
from oscent.covariance import classical_covariance
from oscent.linalg import require_symmetric


def random_chain(rng, n, y_scale=0.5):
    # Build M positive definite first, then K = M + Y^2 so stability holds.
    a = rng.normal(size=(n, n))
    m = a @ a.T + 0.5 * np.eye(n)
    y = rng.uniform(-y_scale, y_scale, size=n)
    return GeneralizedChain(K=m + np.diag(y**2), Y=y)


# --- assembly ---------------------------------------------------------------

def test_assemble_two_mode():
    k, y = assemble_ky(TwoMode(A=5.0, B=20.0, C=10.0))
    assert_array_equal(k, [[5.0, 5.0], [5.0, 20.0]])
    assert_array_equal(y, [0.0, 0.0])


def test_assemble_generalized_pair():
    k, y = assemble_ky(TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=0.0, Z=1.0))
    assert_array_equal(k, [[3.0, -1.0], [-1.0, 3.0]])
    assert_array_equal(y, [0.0, 0.0])


def test_assemble_lattice_ring_of_four():
    k, y = assemble_ky(CircularLattice(N=4, k=0.1, kappa=1.0))
    expect = np.array([
        [2.1, -1.0, 0.0, -1.0],
        [-1.0, 2.1, -1.0, 0.0],
        [0.0, -1.0, 2.1, -1.0],
        [-1.0, 0.0, -1.0, 2.1],
    ])
    assert_allclose(k, expect, atol=1e-15)
    assert_array_equal(y, np.zeros(4))


def test_assemble_lattice_smallest_ring():
    k, _ = assemble_ky(CircularLattice(N=3, k=0.5, kappa=2.0))
    assert_allclose(k, [[4.5, -2.0, -2.0], [-2.0, 4.5, -2.0], [-2.0, -2.0, 4.5]],
                    atol=1e-15)


def test_m_matrix_subtracts_squared_coupling():
    chain = GeneralizedChain(K=np.diag([4.0, 9.0]), Y=np.array([1.0, 2.0]))
    assert_array_equal(m_matrix(chain), np.diag([3.0, 5.0]))


def test_validate_rejects_bad_two_mode():
    # Construction checks the parameters: an invalid model never exists.
    with pytest.raises(InvalidModelError):
        TwoMode(A=-1.0, B=2.0, C=0.0)
    with pytest.raises(InvalidModelError):
        TwoMode(A=2.0, B=2.0, C=0.5)
    with pytest.raises(InvalidModelError):
        TwoMode(A=1.0, B=1.5, C=10.0)  # 4AB < C^2
    with pytest.raises(InvalidModelError, match="4AB - C\\^2 = -inf < 0"):
        TwoMode(A=1.0, B=2.0, C=1e200)  # C**2 overflows
    for bad in (float("nan"), float("inf"), float("-inf")):
        for fields in (dict(A=bad, B=2.0, C=0.5), dict(A=1.0, B=bad, C=0.5),
                       dict(A=1.0, B=2.0, C=bad)):
            with pytest.raises(InvalidModelError, match="finite"):
                TwoMode(**fields)


def test_validate_rejects_bad_lattice():
    with pytest.raises(InvalidModelError):
        CircularLattice(N=2, k=0.1, kappa=1.0)
    with pytest.raises(InvalidModelError):
        CircularLattice(N=4, k=-0.1, kappa=1.0)
    with pytest.raises(InvalidModelError):
        CircularLattice(N=4, k=0.1, kappa=-1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidModelError):
            CircularLattice(N=4, k=bad, kappa=1.0)
        with pytest.raises(InvalidModelError):
            CircularLattice(N=4, k=0.1, kappa=bad)
    # Each finite, but the largest squared frequency k + 4 kappa overflows.
    for k, kappa in ((1e308, 5e307), (0.1, 1e308), (0.0, 4.5e307)):
        with pytest.raises(InvalidModelError, match="field 'kappa'"):
            CircularLattice(N=4, k=k, kappa=kappa)
    CircularLattice(N=4, k=1e307, kappa=2e307)


def test_validate_rejects_asymmetric_chain():
    with pytest.raises(InvalidModelError, match="'K'"):
        GeneralizedChain(K=np.array([[1.0, 0.5], [0.0, 1.0]]), Y=np.zeros(2))
    with pytest.raises(InvalidModelError, match="'Y'"):
        GeneralizedChain(K=np.eye(2), Y=np.zeros(3))


def test_validate_rejects_non_finite_chain():
    for bad in (float("nan"), float("inf"), float("-inf")):
        k = np.array([[2.0, 0.5], [0.5, 2.0]])
        k[0, 1] = k[1, 0] = bad
        with pytest.raises(InvalidModelError, match="'K'.*non-finite"):
            GeneralizedChain(K=k, Y=np.zeros(2))
        with pytest.raises(InvalidModelError, match="'Y'.*finite"):
            GeneralizedChain(K=np.eye(2), Y=np.array([0.1, bad]))


# Each ``model`` builds an invalid model when called.
@pytest.mark.parametrize("model, field", [
    (partial(TwoModeGeneralized, X1=2.0, X2=2.0, Y1=1e200, Y2=0.0, Z=1.0), "Y1"),
    (partial(TwoModeGeneralized, X1=2.0, X2=2.0, Y1=0.0, Y2=np.float64(-1e155), Z=1.0),
     "Y2"),
    (partial(GeneralizedChain, K=np.eye(3), Y=np.array([0.0, 1e200, 0.1])), "Y"),
])
def test_validate_rejects_a_coupling_whose_square_overflows(model, field):
    # Each is finite, but Y**2 in M = K - Y**2 is not.
    with np.errstate(all="raise"):  # refused before numpy squares it
        with pytest.raises(InvalidModelError,
                           match=f"field '{field}': {field}\\*\\*2 overflows"):
            model()
    # The largest square that stays finite passes validation.
    TwoModeGeneralized(X1=2.0, X2=2.0, Y1=1e154, Y2=0.0, Z=1.0)


@pytest.mark.parametrize("model, field", [
    (partial(TwoModeGeneralized, X1=1e308, X2=2.0, Y1=0.0, Y2=0.0, Z=1e308), "X1"),
    (partial(TwoModeGeneralized, X1=2.0, X2=1e308, Y1=0.0, Y2=0.0, Z=1e308), "X2"),
    (partial(TwoModeGeneralized, X1=-1e308, X2=2.0, Y1=0.0, Y2=0.0, Z=-1e308), "X1"),
    (partial(TwoModeGeneralized, X1=-1.7e308, X2=2.0, Y1=1.3e154, Y2=0.0, Z=0.0), "X1"),
    (partial(GeneralizedChain, K=np.diag([1.0, -1.7e308]), Y=np.array([0.0, 1.3e154])),
     "K"),
])
def test_validate_rejects_a_stiffness_diagonal_that_overflows(model, field):
    # Each field is finite, but the diagonal of M = K - Y**2 is not.
    with np.errstate(all="raise"):  # refused before numpy adds them
        with pytest.raises(InvalidModelError, match=f"field '{field}': .* overflows"):
            model()
    # The largest sum that stays finite passes validation.
    TwoModeGeneralized(X1=8e307, X2=2.0, Y1=0.0, Y2=0.0, Z=8e307)


VALID_MODELS = [
    TwoMode(A=5.0, B=20.0, C=10.0),
    TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.0, Z=1.0),
    GeneralizedChain(K=np.array([[2.0, -0.5], [-0.5, 3.0]]), Y=np.array([0.1, -0.2])),
    CircularLattice(N=6, k=0.1, kappa=2.0),
]


@pytest.mark.parametrize("model, changes, match", [
    (VALID_MODELS[0], dict(B=5.0), "A == B is excluded"),
    (VALID_MODELS[0], dict(C=float("nan")), "field 'C': must be finite"),
    (VALID_MODELS[1], dict(X1=1e308, Z=1e308), "field 'X1': X1 \\+ Z - Y1\\*\\*2 overflows"),
    (VALID_MODELS[1], dict(Y2=1e200), "field 'Y2': Y2\\*\\*2 overflows"),
    (VALID_MODELS[2], dict(K=np.array([[2.0, -0.5], [0.5, 3.0]])), "field 'K': K is not"),
    (VALID_MODELS[2], dict(Y=np.zeros(3)), "field 'Y': expected length-2"),
    (VALID_MODELS[3], dict(N=2), "field 'N'"),
    (VALID_MODELS[3], dict(kappa=-1.0), "field 'kappa'"),
], ids=["TwoMode-B", "TwoMode-C", "TwoModeGeneralized-X1-Z", "TwoModeGeneralized-Y2",
        "GeneralizedChain-K", "GeneralizedChain-Y", "CircularLattice-N",
        "CircularLattice-kappa"])
def test_replace_checks_like_construction(model, changes, match):
    # dataclasses.replace builds through __init__, so it cannot skip the check.
    with pytest.raises(InvalidModelError, match=match) as direct:
        type(model)(**{**{f.name: getattr(model, f.name)
                          for f in dataclasses.fields(model)}, **changes})
    with pytest.raises(InvalidModelError, match=f"^{re.escape(str(direct.value))}$"):
        dataclasses.replace(model, **changes)


def save_to_devnull(model):
    save_model(model, os.devnull)


@pytest.mark.parametrize("call", [normal_modes, assemble_ky, model_to_dict, m_matrix,
                                  stability, save_to_devnull])
@pytest.mark.parametrize("obj", [object(), {"variant": "TwoMode"}, None])
def test_a_non_model_is_refused_by_type(call, obj):
    with pytest.raises(InvalidModelError, match=f"^unknown model type {type(obj).__name__}$"):
        call(obj)


def test_chain_holds_its_checked_arrays():
    # K is kept as require_symmetric returns it and Y as floats, both the
    # model's own read-only arrays, so the checked values cannot change.
    k = np.array([[2.0, 0.5 + 1e-14], [0.5, 2.0]])
    y = np.array([1, 0])
    chain = GeneralizedChain(K=k, Y=y)
    assert_array_equal(chain.K, 0.5 * (k + k.T))
    assert chain.Y.dtype == np.float64
    y[0] = 5
    assert_array_equal(chain.Y, [1.0, 0.0])
    for array in (chain.K, chain.Y):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    got_k, got_y = assemble_ky(chain)  # copies the caller may change
    got_k[0, 0] = got_y[0] = -1.0
    assert_array_equal(chain.K, 0.5 * (k + k.T))
    assert_array_equal(chain.Y, [1.0, 0.0])


def test_empty_chain_is_refused_on_save_and_load(tmp_path):
    # Saved, it used to read back as a 1-D "K": [] that load_model refuses;
    # now it cannot be built, so there is nothing to save.
    path = tmp_path / "empty.json"
    with pytest.raises(InvalidModelError, match="field 'K': a chain needs at least one"):
        GeneralizedChain(K=np.zeros((0, 0)), Y=np.zeros(0))
    path.write_text('{"variant": "GeneralizedChain", "K": [], "Y": []}')
    with pytest.raises(InvalidModelError, match="field 'K'"):
        load_model(path)


def test_chain_stiffness_is_checked_once(monkeypatch):
    # The chain checks and symmetrizes K once, when it is built; assemble_ky
    # reads the stored result.
    calls = []

    def spy(mat, *args, **kwargs):
        calls.append(mat)
        return require_symmetric(mat, *args, **kwargs)

    monkeypatch.setattr(models, "require_symmetric", spy)
    k = np.array([[2.0, 0.5 + 1e-14], [0.5, 2.0]])
    got, y = assemble_ky(GeneralizedChain(K=k, Y=np.array([0.1, -0.2])))
    assert len(calls) == 1
    assert_array_equal(got, 0.5 * (k + k.T))
    assert_array_equal(y, [0.1, -0.2])


def test_a_chain_file_is_checked_once_from_load_to_state(tmp_path, monkeypatch):
    # load_model checks K once; normal_modes trusts the built model's exactly
    # symmetric K and M (the calls used to be K, K, M, qq, pp).
    save_model(random_chain(np.random.default_rng(7), 6), tmp_path / "chain.json")
    calls = []

    def spy(mat, name="matrix"):
        calls.append((name, np.shape(mat)))
        return require_symmetric(mat, name=name)

    for module in (models, linalg, covariance):
        monkeypatch.setattr(module, "require_symmetric", spy)
    classical_covariance(normal_modes(load_model(tmp_path / "chain.json")), np.ones(6))
    assert calls == [("K", (6, 6)), ("qq", (6, 6)), ("pp", (6, 6))]


# --- stability --------------------------------------------------------------

def test_stability_interval_of_momentum_coupling():
    stable = stability(TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.0, Z=1.0))
    assert stable.stable and stable.min_eigenvalue > 0.0
    unstable = stability(TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.7, Z=1.0))
    assert not unstable.stable and unstable.min_eigenvalue < 0.0


def test_stability_boundary_value():
    # det(K - Y^2) = 3(3 - Y2^2) - 1 changes sign at Y2 = sqrt(8/3).
    edge = np.sqrt(8.0 / 3.0)
    below = stability(TwoModeGeneralized(2.0, 2.0, 0.0, edge - 1e-6, 1.0))
    above = stability(TwoModeGeneralized(2.0, 2.0, 0.0, edge + 1e-6, 1.0))
    assert below.stable and not above.stable


def test_stability_pinned_lattice():
    assert stability(CircularLattice(N=10, k=0.3, kappa=5.0)).stable


def test_stability_unpinned_lattice_is_marginal():
    # k = 0 leaves the uniform-translation mode at zero frequency.
    report = stability(CircularLattice(N=8, k=0.0, kappa=1.0))
    assert abs(report.min_eigenvalue) < 1e-12


# --- normal modes -----------------------------------------------------------

def test_normal_modes_two_mode_frequencies():
    modes = normal_modes(TwoMode(A=5.0, B=20.0, C=10.0))
    assert_allclose(modes.omegas, [1.8671159073126733, 4.638305529895586], rtol=1e-12)
    # Invariant of the pair: product of squared frequencies is det K.
    assert_allclose(np.prod(modes.omegas**2), 75.0, rtol=1e-12)


def test_normal_modes_lattice_dft_oracle():
    n, k, kappa = 200, 0.1, 1.0
    modes = normal_modes(CircularLattice(N=n, k=k, kappa=kappa))
    j = np.arange(n)
    oracle = np.sort(k + 2.0 * kappa * (1.0 - np.cos(2.0 * np.pi * j / n)))
    assert_allclose(modes.omegas**2, oracle, atol=1e-12)


def test_ring_frequencies_match_the_eigensolver():
    for n in (3, 8, 13):
        model = CircularLattice(N=n, k=0.2, kappa=3.0)
        assert_allclose(np.sort(_ring_frequency_rows([model])[0]),
                        normal_modes(model).omegas, rtol=1e-12)
    with pytest.raises(UnstableSystemError):
        _ring_frequency_rows([CircularLattice(N=8, k=0.0, kappa=1.0)])
    with pytest.raises(InvalidModelError):
        _ring_frequency_rows([CircularLattice(N=8, k=float("nan"), kappa=1.0)])


def test_ring_frequency_rows_of_a_stack_are_each_model_alone_bit_for_bit():
    # One expression for the whole stack gives every row the bits of that
    # model's own sqrt(k + 2 kappa table); the stability test reads k, the
    # smallest omega**2, and reports it as the row's minimum was reported.
    n = 37
    table = 1.0 - np.cos(2.0 * np.pi * np.arange(n) / n)
    models = [CircularLattice(N=n, k=k, kappa=kappa)
              for k, kappa in ((0.1, 1.0), (5e-324, 4e307), (1e-20, 64), (3, 0.0), (1e300, 0.7))]
    rows = _ring_frequency_rows(iter(models))
    for row, model in zip(rows, models):
        assert row.tobytes() == np.sqrt(model.k + 2.0 * model.kappa * table).tobytes()
    for k in (0.0, -0.0, 0):
        with pytest.raises(UnstableSystemError, match=r"^system is not stable: min "
                                                      r"eigenvalue of K - Y\^2 is 0\.000000e\+00$"):
            _ring_frequency_rows(models[:2] + [CircularLattice(N=n, k=k, kappa=2.0)])


def test_normal_modes_decoupled_pair():
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    assert_allclose(modes.omegas, [2.0, 3.0], rtol=1e-14)
    assert_array_equal(modes.s, np.eye(2))


def test_normal_modes_reconstruction_property():
    rng = np.random.default_rng(53)
    for _ in range(20):
        chain = random_chain(rng, int(rng.integers(2, 9)))
        modes = normal_modes(chain)
        assert np.all(modes.omegas > 0.0) and np.all(np.diff(modes.omegas) >= 0.0)
        # Column signs are unspecified, but the same model gives the same bits.
        again = normal_modes(chain)
        assert again.omegas.tobytes() == modes.omegas.tobytes()
        assert again.s.tobytes() == modes.s.tobytes()
        assert_allclose(modes.s.T @ modes.s, np.eye(len(modes.omegas)), atol=1e-10)
        m = m_matrix(chain)
        rebuilt = (modes.s * modes.omegas**2) @ modes.s.T
        assert_allclose(rebuilt, m, atol=1e-9 * np.max(np.abs(m)))
        assert_array_equal(modes.ydiag, np.asarray(chain.Y, dtype=float))


@pytest.mark.parametrize("ints, floats", [
    (TwoModeGeneralized(2, 2, 0, 1, 1), TwoModeGeneralized(2.0, 2.0, 0.0, 1.0, 1.0)),
    (TwoModeGeneralized(2, 3, 0, 0, 1), TwoModeGeneralized(2.0, 3.0, 0.0, 0.0, 1.0)),
    (TwoMode(5, 20, 10), TwoMode(5.0, 20.0, 10.0)),
    (GeneralizedChain(np.array([[3, -1], [-1, 3]]), np.array([1, 0])),
     GeneralizedChain(np.array([[3.0, -1.0], [-1.0, 3.0]]), np.array([1.0, 0.0]))),
    (CircularLattice(6, 1, 4), CircularLattice(6, 1.0, 4.0)),
])
def test_integer_parameters_give_the_float_result(ints, floats):
    # Library callers may pass plain ints; K is built as float either way.
    got, expect = normal_modes(ints), normal_modes(floats)
    for field in ("s", "omegas", "ydiag"):
        assert getattr(got, field).dtype == np.float64
        assert_array_equal(getattr(got, field), getattr(expect, field))
    assert stability(ints) == stability(floats)
    assert_array_equal(m_matrix(ints), m_matrix(floats))


def test_normal_modes_unstable_raises():
    with pytest.raises(UnstableSystemError):
        normal_modes(TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.7, Z=1.0))


def test_lattice_spectrum_rotation_invariant():
    # Cyclically relabeling the ring leaves the frequencies unchanged.
    lattice = CircularLattice(N=12, k=0.2, kappa=0.7)
    k, y = assemble_ky(lattice)
    perm = np.roll(np.arange(12), 5)
    rotated = GeneralizedChain(K=k[np.ix_(perm, perm)], Y=y[perm])
    assert_allclose(normal_modes(rotated).omegas, normal_modes(lattice).omegas,
                    atol=1e-10)


# --- closed-form angles ------------------------------------------------------

def test_two_mode_angles_reference_case():
    ang = two_mode_angles(TwoMode(A=5.0, B=20.0, C=10.0))
    # tan(2 beta) = C/(B - A) = 2/3.
    assert_allclose(np.tan(2.0 * ang.angle), 2.0 / 3.0, rtol=1e-14)
    assert_allclose(ang.angle, 0.29400130177378375, rtol=1e-12)
    assert_allclose([ang.omega1, ang.omega2],
                    [1.8671159073126733, 4.638305529895586], rtol=1e-12)
    assert not ang.permuted


def test_two_mode_angles_match_eigensolver():
    rng = np.random.default_rng(59)
    count = 0
    while count < 25:
        a, b = rng.uniform(0.5, 20.0, size=2)
        if abs(a - b) < 1e-3:
            continue
        cmax = 2.0 * np.sqrt(a * b)
        c = rng.uniform(-0.95, 0.95) * cmax
        ang = two_mode_angles(TwoMode(A=a, B=b, C=c))
        modes = normal_modes(TwoMode(A=a, B=b, C=c))
        assert_allclose(np.sort([ang.omega1, ang.omega2]), modes.omegas, rtol=1e-9)
        count += 1


def test_two_mode_angles_permuted_flag():
    ang = two_mode_angles(TwoMode(A=20.0, B=5.0, C=10.0))
    assert ang.permuted
    assert ang.omega1 > ang.omega2
    modes = normal_modes(TwoMode(A=20.0, B=5.0, C=10.0))
    assert_allclose([ang.omega2, ang.omega1], modes.omegas, rtol=1e-12)


def test_generalized_angle_golden_value():
    # gamma = 1/2, so tan(theta) = sqrt(5/4) - 1/2 = (sqrt 5 - 1)/2.
    ang = two_mode_angles(TwoModeGeneralized(X1=1.0, X2=2.0, Y1=0.0, Y2=0.0, Z=1.0))
    assert_allclose(np.tan(ang.angle), (np.sqrt(5.0) - 1.0) / 2.0, rtol=1e-14)
    modes = normal_modes(TwoModeGeneralized(X1=1.0, X2=2.0, Y1=0.0, Y2=0.0, Z=1.0))
    assert_allclose(np.sort([ang.omega1, ang.omega2]), modes.omegas, rtol=1e-12)
    assert_allclose(np.sort([ang.omega1, ang.omega2])**2,
                    [(5.0 - np.sqrt(5.0)) / 2.0, (5.0 + np.sqrt(5.0)) / 2.0],
                    rtol=1e-14)


def test_generalized_angle_matches_eigensolver():
    rng = np.random.default_rng(61)
    count = 0
    while count < 25:
        x1, x2 = rng.uniform(1.0, 6.0, size=2)
        y1, y2 = rng.uniform(-0.8, 0.8, size=2)
        z = rng.uniform(0.2, 2.0)
        model = TwoModeGeneralized(X1=x1, X2=x2, Y1=y1, Y2=y2, Z=z)
        if abs(x2 - x1 + y1**2 - y2**2) < 1e-3 or not stability(model).stable:
            continue
        ang = two_mode_angles(model)
        modes = normal_modes(model)
        assert_allclose(np.sort([ang.omega1, ang.omega2]), modes.omegas, rtol=1e-9)
        count += 1


def test_angles_degenerate_cases_raise():
    with pytest.raises(DegenerateParametersError):
        two_mode_angles(TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=0.0, Z=1.0))
    with pytest.raises(DegenerateParametersError):
        two_mode_angles(TwoModeGeneralized(X1=1.0, X2=2.0, Y1=0.0, Y2=0.0, Z=0.0))
    # Equal diagonal couplings are refused when the model is built, so the
    # angle never meets A == B.
    with pytest.raises(InvalidModelError, match="A == B"):
        TwoMode(A=3.0, B=3.0, C=1.0)


def test_angles_unsupported_model():
    with pytest.raises(InvalidModelError):
        two_mode_angles(CircularLattice(N=4, k=0.1, kappa=1.0))


# --- model files -------------------------------------------------------------

def test_model_round_trip_all_variants(tmp_path):
    models = [
        TwoMode(A=5.0, B=20.0, C=10.0),
        TwoModeGeneralized(X1=2.0, X2=2.0, Y1=0.0, Y2=1.0, Z=1.0),
        GeneralizedChain(K=np.array([[2.0, -0.5], [-0.5, 3.0]]),
                         Y=np.array([0.1, -0.2])),
        CircularLattice(N=6, k=0.1, kappa=2.0),
    ]
    for i, model in enumerate(models):
        path = tmp_path / f"model_{i}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        if isinstance(model, GeneralizedChain):
            assert_array_equal(loaded.K, model.K)
            assert_array_equal(loaded.Y, model.Y)
        else:
            assert loaded == model


PINNED_MODEL_FILES = [
    (TwoMode(A=5.0, B=20.0, C=10.0),
     '{\n  "variant": "TwoMode",\n  "A": 5.0,\n  "B": 20.0,\n  "C": 10.0\n}\n'),
    (TwoModeGeneralized(X1=2.0, X2=2.5, Y1=0.0, Y2=-0.25, Z=1.0),
     '{\n  "variant": "TwoModeGeneralized",\n  "X1": 2.0,\n  "X2": 2.5,\n'
     '  "Y1": 0.0,\n  "Y2": -0.25,\n  "Z": 1.0\n}\n'),
    # Integer arrays are written as float lists.
    (GeneralizedChain(K=np.array([[2, -1], [-1, 3]]), Y=np.array([0, 1])),
     '{\n  "variant": "GeneralizedChain",\n  "K": [\n    [\n      2.0,\n      -1.0\n'
     '    ],\n    [\n      -1.0,\n      3.0\n    ]\n  ],\n  "Y": [\n    0.0,\n'
     '    1.0\n  ]\n}\n'),
    # A numpy integer N is written as a plain JSON integer.
    (CircularLattice(N=np.int64(6), k=0.1, kappa=2.0),
     '{\n  "variant": "CircularLattice",\n  "N": 6,\n  "k": 0.1,\n  "kappa": 2.0\n}\n'),
]


@pytest.mark.parametrize("model,text", PINNED_MODEL_FILES,
                         ids=[type(m).__name__ for m, _ in PINNED_MODEL_FILES])
def test_saved_model_file_layout_is_pinned(tmp_path, model, text):
    # Key order, 2-space indent and the trailing newline are part of the format.
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_bytes() == text.encode("utf-8")


def test_numpy_scalar_fields_round_trip(tmp_path):
    # A numpy scalar is written as the Python number it holds.
    path = tmp_path / "model.json"
    save_model(TwoMode(np.float32(5), np.int64(20), np.float64(7.5)), path)
    assert path.read_bytes() == (
        b'{\n  "variant": "TwoMode",\n  "A": 5.0,\n  "B": 20,\n  "C": 7.5\n}\n')
    assert load_model(path) == TwoMode(A=5.0, B=20.0, C=7.5)
    ghoc = TwoModeGeneralized(*(np.float32(v) for v in (2.0, 2.5, 0.0, -0.25, 1.0)))
    save_model(ghoc, path)
    assert load_model(path) == TwoModeGeneralized(X1=2.0, X2=2.5, Y1=0.0, Y2=-0.25, Z=1.0)


def test_unencodable_model_leaves_an_existing_file_unchanged(tmp_path):
    # The file is opened only after the whole model is encoded.
    path = tmp_path / "model.json"
    save_model(TwoMode(A=5.0, B=20.0, C=10.0), path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="ndarray"):
        save_model(TwoMode(np.array(5.0), 20.0, 10.0), path)
    assert path.read_bytes() == before


def test_model_dict_errors_name_the_field():
    with pytest.raises(InvalidModelError, match="field 'K': not a numeric matrix"):
        model_from_dict({"variant": "GeneralizedChain", "K": [[1.0, 0.0], [0.0]],
                         "Y": [0.0, 0.0]})
    with pytest.raises(InvalidModelError, match="field 'Y': not a numeric vector"):
        model_from_dict({"variant": "GeneralizedChain", "K": [[1.0, 0.0], [0.0, 1.0]],
                         "Y": ["a", 0.0]})
    with pytest.raises(InvalidModelError, match="'variant'"):
        model_from_dict({"variant": "Nope"})
    with pytest.raises(InvalidModelError, match="'variant'"):
        model_from_dict({"variant": ["TwoMode"], "A": 1.0, "B": 2.0, "C": 0.0})
    with pytest.raises(InvalidModelError, match="'C'"):
        model_from_dict({"variant": "TwoMode", "A": 1.0, "B": 2.0})
    with pytest.raises(InvalidModelError, match="'D'"):
        model_from_dict({"variant": "TwoMode", "A": 1.0, "B": 2.0, "C": 0.0, "D": 4.0})
    with pytest.raises(InvalidModelError, match="'A'"):
        model_from_dict({"variant": "TwoMode", "A": "big", "B": 2.0, "C": 0.0})
    with pytest.raises(InvalidModelError, match="'N'"):
        model_from_dict({"variant": "CircularLattice", "N": 6.5, "k": 0.1, "kappa": 1.0})
    with pytest.raises(InvalidModelError, match="'N'"):
        model_from_dict({"variant": "CircularLattice", "N": True, "k": 0.1, "kappa": 1.0})
    with pytest.raises(InvalidModelError):
        model_from_dict(["not", "a", "mapping"])
    # An integer beyond the largest double (the JSON parser keeps it exact).
    huge = 10**400
    with pytest.raises(InvalidModelError, match="field 'A': int too large"):
        model_from_dict({"variant": "TwoMode", "A": huge, "B": 2.0, "C": 0.0})
    with pytest.raises(InvalidModelError, match="field 'K': not a numeric matrix"):
        model_from_dict({"variant": "GeneralizedChain", "K": [[huge, 0.0], [0.0, 1.0]],
                         "Y": [0.0, 0.0]})


def test_model_dict_validates_parameters():
    with pytest.raises(InvalidModelError):
        model_from_dict({"variant": "TwoMode", "A": 1.0, "B": 1.0, "C": 0.0})


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidModelError, match="JSON"):
        load_model(path)


@pytest.mark.parametrize("raw", [b"\xff", '{"variant": "TwoMode"}'.encode("utf-16"),
                                 b'{"variant": "TwoMode", "A": 5.0, "B": 20.0, "C": "\xe9"}'],
                         ids=["byte-ff", "utf-16", "latin-1"])
def test_load_model_refuses_a_file_that_is_not_utf8(tmp_path, raw):
    # These used to escape as a bare UnicodeDecodeError.
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    with pytest.raises(InvalidModelError, match="not valid JSON: 'utf-8' codec"):
        load_model(path)


def test_load_model_refuses_a_byte_order_mark(tmp_path):
    # Python's JSON dialect refuses a UTF-8 BOM in text; the file reader
    # keeps that rule.
    path = tmp_path / "model.json"
    path.write_bytes(b"\xef\xbb\xbf" + b'{"variant": "TwoMode", "A": 5, "B": 20, "C": 1}')
    with pytest.raises(InvalidModelError, match="BOM"):
        load_model(path)


# --- model files against the standard library --------------------------------
#
# save_model encodes each list of numbers with json's C encoder and load_model
# parses with orjson; the references below are the stdlib routes they replace.

def indent2_oracle(model):
    """The model file as json's pure-Python encoder writes it at indent=2."""
    return "".join(json.JSONEncoder(indent=2).iterencode(model_to_dict(model))).encode(
        "ascii") + b"\n"


def field_bits(model):
    """Each field's type, shape and exact bits (-0.0 differs from 0.0)."""
    bits = []
    for name, value in vars(model).items():
        if isinstance(value, np.ndarray):
            bits.append((name, value.dtype.str, value.shape, value.tobytes()))
        elif isinstance(value, float):
            bits.append((name, "float", struct.pack("<d", value)))
        else:
            bits.append((name, type(value).__name__, value))
    return bits


# 1e-4 and 1e16 bound the range where save_model's rows take orjson: repr
# writes the doubles just below 1e-4, and 1e16 itself, with an exponent.
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-300, 1e22, 1e23,
                1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e16, 0.0)), 1e16]
DOUBLES = st.one_of(st.sampled_from(EDGE_DOUBLES),
                    st.floats(allow_nan=False, allow_infinity=False))


def built(cls, *args):
    """cls(*args), or None where the arguments are outside the model's domain."""
    try:
        return cls(*args)
    except InvalidModelError:
        return None


@st.composite
def model_strategy(draw):
    kind = draw(st.sampled_from(["TwoMode", "TwoModeGeneralized", "GeneralizedChain",
                                 "CircularLattice"]))
    if kind == "TwoMode":
        model = built(TwoMode, *(draw(DOUBLES) for _ in range(3)))
    elif kind == "TwoModeGeneralized":
        model = built(TwoModeGeneralized, *(draw(DOUBLES) for _ in range(5)))
    elif kind == "CircularLattice":
        model = built(CircularLattice, draw(st.integers(3, 64)), abs(draw(DOUBLES)),
                      abs(draw(DOUBLES)))
    else:
        n = draw(st.integers(1, 5))
        k = np.array(draw(st.lists(DOUBLES, min_size=n * n, max_size=n * n))).reshape(n, n)
        model = built(GeneralizedChain, np.triu(k) + np.triu(k, 1).T,
                      np.array(draw(st.lists(DOUBLES, min_size=n, max_size=n))))
    assume(model is not None)
    return model


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(model=model_strategy())
def test_model_files_match_the_stdlib_encoder_and_decoder(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, path)
    assert path.read_bytes() == indent2_oracle(model)
    reference = model_from_dict(json.loads(path.read_text(encoding="utf-8")))
    assert field_bits(load_model(path)) == field_bits(reference)


@settings(max_examples=200)
@given(digits=st.lists(st.text("0123456789", min_size=1, max_size=40), min_size=1, max_size=4),
       exponents=st.lists(st.integers(-345, 330), min_size=4, max_size=4),
       signs=st.lists(st.sampled_from(["", "-"]), min_size=4, max_size=4))
def test_hand_written_numbers_parse_as_json_loads_parses_them(tmp_path_factory, digits,
                                                              exponents, signs):
    # Files written by hand need not hold the shortest repr of each double;
    # long mantissas and halfway cases must round as Python's parser rounds.
    # A number outside the double range goes to the stdlib parser and is
    # refused by the field check on both routes.
    numbers = [f"{sign}{d[0]}.{d[1:] or 0}e{x}" for d, x, sign in zip(digits, exponents, signs)]
    n = len(numbers)
    k = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    text = f'{{"variant": "GeneralizedChain", "K": {k}, "Y": [{", ".join(numbers)}]}}'
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(text, encoding="utf-8")

    def outcome(load):
        try:
            return field_bits(load())
        except InvalidModelError as exc:
            return str(exc)

    assert outcome(lambda: load_model(path)) == outcome(
        lambda: model_from_dict(json.loads(text)))


def test_only_what_orjson_refuses_reaches_json_loads(tmp_path, monkeypatch):
    # Guards the fast path: a file save_model wrote never takes the fallback.
    calls, loads = [], json.loads

    def spy(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(models.json, "loads", spy)
    path = tmp_path / "model.json"
    for model in (TwoMode(A=5.0, B=20.0, C=10.0),
                  TwoModeGeneralized(X1=2.0, X2=2.5, Y1=0.0, Y2=-0.25, Z=1.0),
                  random_chain(np.random.default_rng(3), 12),
                  CircularLattice(N=np.int64(16), k=5e-324, kappa=1.7976931348623157e307)):
        save_model(model, path)
        load_model(path)
    assert calls == []

    path.write_text('{"variant": "GeneralizedChain", "K": [[2.0, NaN], [NaN, 2.0]], '
                    '"Y": [0.0, 0.0]}')
    with pytest.raises(InvalidModelError, match="field 'K'"):
        load_model(path)
    assert len(calls) == 1


def test_model_to_dict_is_json_ready():
    chain = GeneralizedChain(K=np.eye(2), Y=np.zeros(2))
    doc = model_to_dict(chain)
    json.dumps(doc)
    assert doc["variant"] == "GeneralizedChain"
    assert doc["K"] == [[1.0, 0.0], [0.0, 1.0]]

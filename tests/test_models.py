"""Model assembly, stability, normal modes and model-file round trips."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oscent.errors import (
    DegenerateParametersError,
    InvalidModelError,
    UnstableSystemError,
)
from oscent.models import (
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
    ring_frequencies,
    save_model,
    stability,
    two_mode_angles,
    validate_model,
)


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
    with pytest.raises(InvalidModelError):
        validate_model(TwoMode(A=-1.0, B=2.0, C=0.0))
    with pytest.raises(InvalidModelError):
        validate_model(TwoMode(A=2.0, B=2.0, C=0.5))
    with pytest.raises(InvalidModelError):
        validate_model(TwoMode(A=1.0, B=1.5, C=10.0))  # 4AB < C^2


def test_validate_rejects_bad_lattice():
    with pytest.raises(InvalidModelError):
        validate_model(CircularLattice(N=2, k=0.1, kappa=1.0))
    with pytest.raises(InvalidModelError):
        validate_model(CircularLattice(N=4, k=-0.1, kappa=1.0))
    with pytest.raises(InvalidModelError):
        validate_model(CircularLattice(N=4, k=0.1, kappa=-1.0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidModelError):
            validate_model(CircularLattice(N=4, k=bad, kappa=1.0))
        with pytest.raises(InvalidModelError):
            validate_model(CircularLattice(N=4, k=0.1, kappa=bad))


def test_validate_rejects_asymmetric_chain():
    with pytest.raises(InvalidModelError, match="'K'"):
        validate_model(GeneralizedChain(K=np.array([[1.0, 0.5], [0.0, 1.0]]),
                                        Y=np.zeros(2)))
    with pytest.raises(InvalidModelError, match="'Y'"):
        validate_model(GeneralizedChain(K=np.eye(2), Y=np.zeros(3)))


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
        assert_allclose(np.sort(ring_frequencies(model)),
                        normal_modes(model).omegas, rtol=1e-12)
    with pytest.raises(UnstableSystemError):
        ring_frequencies(CircularLattice(N=8, k=0.0, kappa=1.0))
    with pytest.raises(InvalidModelError):
        ring_frequencies(CircularLattice(N=8, k=float("nan"), kappa=1.0))


def test_normal_modes_decoupled_pair():
    modes = normal_modes(TwoMode(A=4.0, B=9.0, C=0.0))
    assert_allclose(modes.omegas, [2.0, 3.0], rtol=1e-14)
    assert_array_equal(modes.s, np.eye(2))


def test_normal_modes_reconstruction_property():
    rng = np.random.default_rng(53)
    for _ in range(20):
        chain = random_chain(rng, int(rng.integers(2, 9)))
        modes = normal_modes(chain)
        assert np.all(modes.omegas > 0.0)
        assert_allclose(modes.s.T @ modes.s, np.eye(len(modes.omegas)), atol=1e-10)
        m = m_matrix(chain)
        rebuilt = (modes.s * modes.omegas**2) @ modes.s.T
        assert_allclose(rebuilt, m, atol=1e-9 * np.max(np.abs(m)))
        assert_array_equal(modes.ydiag, np.asarray(chain.Y, dtype=float))


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
    # Equal diagonal couplings are rejected at model validation already.
    with pytest.raises((InvalidModelError, DegenerateParametersError)):
        two_mode_angles(TwoMode(A=3.0, B=3.0, C=1.0))


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


def test_model_dict_errors_name_the_field():
    with pytest.raises(InvalidModelError, match="'variant'"):
        model_from_dict({"variant": "Nope"})
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


def test_model_dict_validates_parameters():
    with pytest.raises(InvalidModelError):
        model_from_dict({"variant": "TwoMode", "A": 1.0, "B": 1.0, "C": 0.0})


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidModelError, match="JSON"):
        load_model(path)


def test_model_to_dict_is_json_ready():
    chain = GeneralizedChain(K=np.eye(2), Y=np.zeros(2))
    doc = model_to_dict(chain)
    json.dumps(doc)
    assert doc["variant"] == "GeneralizedChain"
    assert doc["K"] == [[1.0, 0.0], [0.0, 1.0]]
